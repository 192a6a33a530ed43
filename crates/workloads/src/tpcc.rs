//! Modified TPC-C (paper §5.5–5.6).
//!
//! Partitioned by warehouse (Stonebraker et al.'s scheme): the read-only
//! ITEM table is replicated everywhere, STOCK is vertically partitioned
//! with its read-only columns replicated, so every distributed transaction
//! is a *simple* multi-partition transaction (one fragment per participant,
//! one round). The paper's three modifications are implemented:
//!
//! 1. new-order operations are **reordered** — all item ids are validated
//!    before any write, so a user abort needs no undo buffer;
//! 2. clients have **no think time**;
//! 3. the client count is **fixed**: each client has a home warehouse but
//!    picks a random district per request.
//!
//! Lock granularity (locking scheme): WAREHOUSE and DISTRICT rows lock
//! individually; CUSTOMER locks at (warehouse, district) granularity
//! (covers by-last-name lookups and delivery's dynamically chosen
//! customer); ORDER/NEW-ORDER/ORDER-LINE share a per-district granule; and
//! STOCK locks per item plus a shared per-warehouse granule that
//! stock-level escalates to exclusive (a two-level S/X encoding of
//! intention locks). Coarse granules only *add* conflicts, which is
//! conservative — and warehouse/district rows are the true hot spots
//! anyway ("nearly every transaction modifies the warehouse and district
//! records", §5.5).

use hcc_common::{AbortReason, ClientId, LockKey, LogEncode, PartitionId, TxnId};
use hcc_common::{FxHashMap, FxHashSet};
use hcc_core::procedure::{first_output, last_output};
use hcc_core::{ExecOutcome, ExecutionEngine, OneRound, Request, RequestGenerator};
use hcc_locking::LockMode;
use hcc_storage::tpcc::{
    self as db, last_name, load_partition, CId, DId, IId, Order, OrderLine, TpccScale, TpccStore,
    TpccUndoBuf, WId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::iter;
use std::sync::Arc;

/// Stock-level's whole-warehouse stock granule (see module docs).
fn stock_wh_lock(w: WId) -> LockKey {
    LockKey::packed(db::lock_tags::STOCK, ((w as u64) << 24) | 0xFF_FFFF)
}

fn customers_lock(w: WId, d: DId) -> LockKey {
    // District-granularity customer lock (c = 0 unused by row keys).
    db::customer_lock(w, d, 0)
}

/// How a transaction names its customer (clause 2.5.1.2 / 2.6.1.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CustomerSel {
    ById(CId),
    ByName(Arc<str>),
}

/// One requested order line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderLineReq {
    pub i_id: IId,
    pub supply_w_id: WId,
    pub quantity: u8,
}

/// A unit of TPC-C work at one partition. What it carries by reference is
/// shared, not copied, by every clone — one per dispatch attempt and one
/// into the commit record.
#[derive(Debug, Clone)]
pub enum TpccFragment {
    /// New-order at the home warehouse: full transaction logic; stock
    /// updates for supply warehouses owned by this partition.
    NewOrderHome {
        w_id: WId,
        d_id: DId,
        c_id: CId,
        lines: Arc<[OrderLineReq]>,
    },
    /// Stock updates for supply warehouses owned by a remote partition.
    NewOrderRemote {
        home_w_id: WId,
        lines: Arc<[OrderLineReq]>,
    },
    /// Payment at the home warehouse (warehouse/district YTD + history;
    /// customer too if the customer's warehouse lives here).
    PaymentHome {
        w_id: WId,
        d_id: DId,
        c_w_id: WId,
        c_d_id: DId,
        customer: CustomerSel,
        amount_cents: i64,
        /// True when the customer update happens in this fragment.
        customer_is_local: bool,
    },
    /// Customer half of a cross-partition payment.
    PaymentCustomer {
        w_id: WId,
        d_id: DId,
        c_w_id: WId,
        c_d_id: DId,
        customer: CustomerSel,
        amount_cents: i64,
    },
    OrderStatus {
        w_id: WId,
        d_id: DId,
        customer: CustomerSel,
    },
    Delivery {
        w_id: WId,
        carrier_id: u8,
    },
    StockLevel {
        w_id: WId,
        d_id: DId,
        threshold: i32,
        /// How many recent orders' order-lines the stock join scans
        /// (TPC-C clause 2.8.2.2 fixes 20; `TpccConfig::stock_level_depth`
        /// makes it the scan-length knob of the scan-heavy experiments).
        depth: u32,
    },
}

impl LogEncode for OrderLineReq {
    fn encode(&self, out: &mut Vec<u8>) {
        self.i_id.encode(out);
        self.supply_w_id.encode(out);
        self.quantity.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(OrderLineReq {
            i_id: IId::decode(input)?,
            supply_w_id: WId::decode(input)?,
            quantity: u8::decode(input)?,
        })
    }
}

impl LogEncode for CustomerSel {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CustomerSel::ById(c) => {
                out.push(0);
                c.encode(out);
            }
            CustomerSel::ByName(name) => {
                out.push(1);
                name.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let (tag, rest) = input.split_first()?;
        *input = rest;
        Some(match tag {
            0 => CustomerSel::ById(CId::decode(input)?),
            1 => CustomerSel::ByName(Arc::decode(input)?),
            _ => return None,
        })
    }
}

impl LogEncode for TpccFragment {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TpccFragment::NewOrderHome {
                w_id,
                d_id,
                c_id,
                lines,
            } => {
                out.push(0);
                w_id.encode(out);
                d_id.encode(out);
                c_id.encode(out);
                lines.encode(out);
            }
            TpccFragment::NewOrderRemote { home_w_id, lines } => {
                out.push(1);
                home_w_id.encode(out);
                lines.encode(out);
            }
            TpccFragment::PaymentHome {
                w_id,
                d_id,
                c_w_id,
                c_d_id,
                customer,
                amount_cents,
                customer_is_local,
            } => {
                out.push(2);
                w_id.encode(out);
                d_id.encode(out);
                c_w_id.encode(out);
                c_d_id.encode(out);
                customer.encode(out);
                amount_cents.encode(out);
                customer_is_local.encode(out);
            }
            TpccFragment::PaymentCustomer {
                w_id,
                d_id,
                c_w_id,
                c_d_id,
                customer,
                amount_cents,
            } => {
                out.push(3);
                w_id.encode(out);
                d_id.encode(out);
                c_w_id.encode(out);
                c_d_id.encode(out);
                customer.encode(out);
                amount_cents.encode(out);
            }
            TpccFragment::OrderStatus {
                w_id,
                d_id,
                customer,
            } => {
                out.push(4);
                w_id.encode(out);
                d_id.encode(out);
                customer.encode(out);
            }
            TpccFragment::Delivery { w_id, carrier_id } => {
                out.push(5);
                w_id.encode(out);
                carrier_id.encode(out);
            }
            TpccFragment::StockLevel {
                w_id,
                d_id,
                threshold,
                depth,
            } => {
                out.push(6);
                w_id.encode(out);
                d_id.encode(out);
                threshold.encode(out);
                depth.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let (tag, rest) = input.split_first()?;
        *input = rest;
        Some(match tag {
            0 => TpccFragment::NewOrderHome {
                w_id: WId::decode(input)?,
                d_id: DId::decode(input)?,
                c_id: CId::decode(input)?,
                lines: Arc::decode(input)?,
            },
            1 => TpccFragment::NewOrderRemote {
                home_w_id: WId::decode(input)?,
                lines: Arc::decode(input)?,
            },
            2 => TpccFragment::PaymentHome {
                w_id: WId::decode(input)?,
                d_id: DId::decode(input)?,
                c_w_id: WId::decode(input)?,
                c_d_id: DId::decode(input)?,
                customer: CustomerSel::decode(input)?,
                amount_cents: i64::decode(input)?,
                customer_is_local: bool::decode(input)?,
            },
            3 => TpccFragment::PaymentCustomer {
                w_id: WId::decode(input)?,
                d_id: DId::decode(input)?,
                c_w_id: WId::decode(input)?,
                c_d_id: DId::decode(input)?,
                customer: CustomerSel::decode(input)?,
                amount_cents: i64::decode(input)?,
            },
            4 => TpccFragment::OrderStatus {
                w_id: WId::decode(input)?,
                d_id: DId::decode(input)?,
                customer: CustomerSel::decode(input)?,
            },
            5 => TpccFragment::Delivery {
                w_id: WId::decode(input)?,
                carrier_id: u8::decode(input)?,
            },
            6 => TpccFragment::StockLevel {
                w_id: WId::decode(input)?,
                d_id: DId::decode(input)?,
                threshold: i32::decode(input)?,
                depth: u32::decode(input)?,
            },
            _ => return None,
        })
    }
}

/// Fragment results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TpccOutput {
    NewOrder {
        o_id: u32,
        total_cents: i64,
    },
    /// Remote stock update acknowledgment.
    StockUpdated {
        items: u32,
    },
    Payment {
        c_id: CId,
        c_balance_cents: i64,
    },
    /// Warehouse/district half of a cross-partition payment.
    PaymentHomeDone,
    OrderStatus {
        c_id: CId,
        balance_cents: i64,
        last_o_id: Option<u32>,
        lines: u32,
    },
    Delivery {
        orders_delivered: u32,
    },
    StockLevel {
        low_stock: u32,
    },
}

/// The TPC-C execution engine for one partition: a [`TpccStore`] plus
/// per-transaction undo buffers. Deterministic: dates derive from the
/// transaction id, so replicas executing the same committed transactions
/// reach bit-identical state.
pub struct TpccEngine {
    pub store: TpccStore,
    undo: FxHashMap<TxnId, TpccUndoBuf>,
    /// Recycled undo buffers: steady state allocates nothing per txn.
    undo_pool: Vec<TpccUndoBuf>,
    /// Monotone stamp for undo-buffer creation order (see `KvUndo::birth`).
    undo_births: u64,
    /// Scratch: the item prices new-order's validation pass read, one per
    /// order line (a decoded fragment may carry any number of lines).
    prices: Vec<i64>,
    /// Scratch: the distinct items stock-level has probed.
    seen: FxHashSet<IId>,
}

impl TpccEngine {
    pub fn new(store: TpccStore) -> Self {
        TpccEngine {
            store,
            undo: FxHashMap::default(),
            undo_pool: Vec::new(),
            undo_births: 0,
            prices: Vec::new(),
            seen: FxHashSet::default(),
        }
    }

    pub fn live_undo_buffers(&self) -> usize {
        self.undo.len()
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_new_order_home(
        store: &mut TpccStore,
        prices: &mut Vec<i64>,
        mut undo: Option<&mut TpccUndoBuf>,
        txn: TxnId,
        w_id: WId,
        d_id: DId,
        c_id: CId,
        lines: &[OrderLineReq],
    ) -> Result<(TpccOutput, u32), AbortReason> {
        let mut ops = 0u32;

        // Paper modification #1: validate every item id BEFORE any write,
        // so the 1% "unused item number" abort needs no undo. The prices
        // this pass reads are kept for the line loop below.
        prices.clear();
        for l in lines {
            ops += 1;
            match store.item(l.i_id) {
                Some(item) => prices.push(item.price_cents),
                None => return Err(AbortReason::User),
            }
        }

        let w_tax = store.warehouse(w_id).ok_or(AbortReason::User)?.tax_bp;
        ops += 1;
        let (mut d_tax, mut o_id) = (0, 0);
        let bumped = store.update_district(w_id, d_id, undo.as_deref_mut(), |d| {
            d_tax = d.tax_bp;
            o_id = d.next_o_id;
            d.next_o_id += 1;
        });
        if !bumped {
            return Err(AbortReason::User);
        }
        ops += 1;
        let discount = store
            .customer(w_id, d_id, c_id)
            .ok_or(AbortReason::User)?
            .discount_bp;
        ops += 1;

        let all_local = lines.iter().all(|l| l.supply_w_id == w_id);
        store.insert_order(
            Order {
                w_id,
                d_id,
                o_id,
                c_id,
                entry_d: txn.0,
                carrier_id: None,
                ol_cnt: lines.len() as u8,
                all_local,
            },
            undo.as_deref_mut(),
        );
        store.insert_new_order((w_id, d_id, o_id), undo.as_deref_mut());
        ops += 2;

        let mut total = 0i64;
        for (i, (l, &price)) in lines.iter().zip(prices.iter()).enumerate() {
            // Local stock update (remote supply warehouses are handled by
            // the NewOrderRemote fragment at their partition).
            if Self::take_stock(store, undo.as_deref_mut(), w_id, l) {
                ops += 1;
            }
            let amount = l.quantity as i64 * price;
            total += amount;
            let dist_info = store
                .stock_info_row(l.supply_w_id, l.i_id)
                .map(|si| si.dist_for(d_id))
                .unwrap_or_default();
            store.insert_order_line(
                OrderLine {
                    w_id,
                    d_id,
                    o_id,
                    ol_number: (i + 1) as u8,
                    i_id: l.i_id,
                    supply_w_id: l.supply_w_id,
                    delivery_d: None,
                    quantity: l.quantity,
                    amount_cents: amount,
                    dist_info,
                },
                undo.as_deref_mut(),
            );
            ops += 1;
        }
        // total = Σ amount × (1 − discount) × (1 + w_tax + d_tax), in
        // integer arithmetic (basis points).
        let total = total * (10_000 - discount as i64) / 10_000
            * (10_000 + w_tax as i64 + d_tax as i64)
            / 10_000;
        Ok((
            TpccOutput::NewOrder {
                o_id,
                total_cents: total,
            },
            ops,
        ))
    }

    /// Take one order line's quantity out of its supply warehouse's stock,
    /// if that warehouse lives here (one probe decides and updates).
    fn take_stock(
        store: &mut TpccStore,
        undo: Option<&mut TpccUndoBuf>,
        home_w_id: WId,
        l: &OrderLineReq,
    ) -> bool {
        store.update_stock(l.supply_w_id, l.i_id, undo, |s| {
            s.quantity -= l.quantity as i32;
            if s.quantity < 10 {
                s.quantity += 91;
            }
            s.ytd += l.quantity as u32;
            s.order_cnt += 1;
            if l.supply_w_id != home_w_id {
                s.remote_cnt += 1;
            }
        })
    }

    fn exec_new_order_remote(
        store: &mut TpccStore,
        mut undo: Option<&mut TpccUndoBuf>,
        home_w_id: WId,
        lines: &[OrderLineReq],
    ) -> Result<(TpccOutput, u32), AbortReason> {
        let mut items = 0u32;
        for l in lines {
            if Self::take_stock(store, undo.as_deref_mut(), home_w_id, l) {
                items += 1;
            }
        }
        Ok((TpccOutput::StockUpdated { items }, items))
    }

    fn resolve_customer(
        store: &TpccStore,
        w: WId,
        d: DId,
        sel: &CustomerSel,
    ) -> Result<CId, AbortReason> {
        match sel {
            CustomerSel::ById(c) => Ok(*c),
            CustomerSel::ByName(last) => store
                .customer_by_name_midpoint(w, d, last)
                .ok_or(AbortReason::User),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_payment_customer(
        store: &mut TpccStore,
        undo: Option<&mut TpccUndoBuf>,
        w_id: WId,
        d_id: DId,
        c_w_id: WId,
        c_d_id: DId,
        customer: &CustomerSel,
        amount: i64,
    ) -> Result<(TpccOutput, u32), AbortReason> {
        let mut ops = 1u32;
        let c_id = Self::resolve_customer(store, c_w_id, c_d_id, customer)?;
        if let CustomerSel::ByName(_) = customer {
            ops += 1; // index lookup
        }
        let mut balance = 0;
        let bad_credit = |c: &db::Customer| c.credit == db::Credit::Bad;
        let pay = |c: &mut db::Customer| {
            c.balance_cents -= amount;
            c.ytd_payment_cents += amount;
            c.payment_cnt += 1;
            if bad_credit(c) {
                // Clause 2.5.2.2: bad-credit customers accumulate history
                // in C_DATA (truncated to 500 bytes).
                let entry = format!("{c_id},{c_d_id},{c_w_id},{d_id},{w_id},{amount};");
                c.data.insert_str(0, &entry);
                c.data.truncate(500);
            }
            balance = c.balance_cents;
        };
        if !store.update_customer_and_data(c_w_id, c_d_id, c_id, undo, bad_credit, pay) {
            return Err(AbortReason::User);
        }
        Ok((
            TpccOutput::Payment {
                c_id,
                c_balance_cents: balance,
            },
            ops,
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_payment_home(
        store: &mut TpccStore,
        mut undo: Option<&mut TpccUndoBuf>,
        txn: TxnId,
        w_id: WId,
        d_id: DId,
        c_w_id: WId,
        c_d_id: DId,
        customer: &CustomerSel,
        amount: i64,
        customer_is_local: bool,
    ) -> Result<(TpccOutput, u32), AbortReason> {
        let mut ops = 2u32;
        if !store.update_warehouse(w_id, undo.as_deref_mut(), |w| w.ytd_cents += amount) {
            return Err(AbortReason::User);
        }
        if !store.update_district(w_id, d_id, undo.as_deref_mut(), |d| d.ytd_cents += amount) {
            return Err(AbortReason::User);
        }

        let (result, c_id, extra) = if customer_is_local {
            let (out, n) = Self::exec_payment_customer(
                store,
                undo.as_deref_mut(),
                w_id,
                d_id,
                c_w_id,
                c_d_id,
                customer,
                amount,
            )?;
            let c_id = match &out {
                TpccOutput::Payment { c_id, .. } => *c_id,
                _ => unreachable!(),
            };
            (out, c_id, n)
        } else {
            // The remote fragment updates the customer; history still
            // records the customer's ids (resolution happens remotely, so
            // the history row stores the by-id selection or 0 for by-name;
            // TPC-C's history table is insert-only and never queried by
            // the benchmark transactions).
            let c_id = match customer {
                CustomerSel::ById(c) => *c,
                CustomerSel::ByName(_) => 0,
            };
            (TpccOutput::PaymentHomeDone, c_id, 0)
        };
        ops += extra;

        store.append_history(
            db::History {
                c_id,
                c_d_id,
                c_w_id,
                d_id,
                w_id,
                date: txn.0,
                amount_cents: amount,
                data: String::new(),
            },
            undo,
        );
        ops += 1;
        Ok((result, ops))
    }

    fn exec_order_status(
        store: &TpccStore,
        w_id: WId,
        d_id: DId,
        customer: &CustomerSel,
    ) -> Result<(TpccOutput, u32), AbortReason> {
        let mut ops = 1u32;
        let c_id = Self::resolve_customer(store, w_id, d_id, customer)?;
        let cust = store.customer(w_id, d_id, c_id).ok_or(AbortReason::User)?;
        let last = store.last_order_of(w_id, d_id, c_id);
        ops += 1;
        let (last_o_id, lines) = match last {
            Some(o) => {
                let n = store.order_lines(w_id, d_id, o.o_id).count() as u32;
                ops += n;
                (Some(o.o_id), n)
            }
            None => (None, 0),
        };
        Ok((
            TpccOutput::OrderStatus {
                c_id,
                balance_cents: cust.balance_cents,
                last_o_id,
                lines,
            },
            ops,
        ))
    }

    fn exec_delivery(
        store: &mut TpccStore,
        mut undo: Option<&mut TpccUndoBuf>,
        txn: TxnId,
        w_id: WId,
        carrier_id: u8,
    ) -> Result<(TpccOutput, u32), AbortReason> {
        let mut ops = 0u32;
        let mut delivered = 0u32;
        for d_id in store.districts_of(w_id) {
            let Some(o_id) = store.oldest_new_order(w_id, d_id) else {
                ops += 1;
                continue;
            };
            store.delete_new_order((w_id, d_id, o_id), undo.as_deref_mut());
            let mut c_id = 0;
            store.update_order((w_id, d_id, o_id), undo.as_deref_mut(), |o| {
                o.carrier_id = Some(carrier_id);
                c_id = o.c_id;
            });
            ops += 2;
            // Sum the lines and stamp delivery dates.
            let (lines, amount_sum) =
                store.deliver_order_lines((w_id, d_id, o_id), txn.0, undo.as_deref_mut());
            ops += lines;
            store.update_customer(w_id, d_id, c_id, undo.as_deref_mut(), |c| {
                c.balance_cents += amount_sum;
                c.delivery_cnt += 1;
            });
            ops += 1;
            delivered += 1;
        }
        Ok((
            TpccOutput::Delivery {
                orders_delivered: delivered,
            },
            ops,
        ))
    }

    fn exec_stock_level(
        store: &TpccStore,
        seen: &mut FxHashSet<IId>,
        w_id: WId,
        d_id: DId,
        threshold: i32,
        depth: u32,
    ) -> Result<(TpccOutput, u32), AbortReason> {
        let d = store.district(w_id, d_id).ok_or(AbortReason::User)?;
        let mut ops = 1u32;
        seen.clear();
        let mut low = 0u32;
        for ol in store.recent_order_lines(w_id, d_id, d.next_o_id, depth) {
            ops += 1;
            if seen.insert(ol.i_id) {
                if let Some(s) = store.stock_mut_row(w_id, ol.i_id) {
                    ops += 1;
                    if s.quantity < threshold {
                        low += 1;
                    }
                }
            }
        }
        Ok((TpccOutput::StockLevel { low_stock: low }, ops))
    }
}

impl ExecutionEngine for TpccEngine {
    type Fragment = TpccFragment;
    type Output = TpccOutput;

    fn execute(
        &mut self,
        txn: TxnId,
        fragment: &TpccFragment,
        undo: bool,
    ) -> ExecOutcome<TpccOutput> {
        let store = &mut self.store;
        let pool = &mut self.undo_pool;
        let births = &mut self.undo_births;
        let undo_ref = undo.then(|| {
            // Pooled buffer, pre-sized to the fragment's worst-case record
            // count so recording never (re)allocates.
            let est = match fragment {
                TpccFragment::NewOrderHome { lines, .. } => 3 + 2 * lines.len(),
                TpccFragment::NewOrderRemote { lines, .. } => lines.len(),
                // One delivered order per district (≤ 10 districts): a
                // new-order delete + order update + customer update + up
                // to 15 line updates each.
                TpccFragment::Delivery { .. } => 180,
                _ => 4,
            };
            let buf = self.undo.entry(txn).or_insert_with(|| {
                let mut b = pool.pop().unwrap_or_default();
                b.clear();
                *births += 1;
                b.birth = *births;
                b
            });
            buf.reserve(est);
            buf
        });
        let r = match fragment {
            TpccFragment::NewOrderHome {
                w_id,
                d_id,
                c_id,
                lines,
            } => Self::exec_new_order_home(
                store,
                &mut self.prices,
                undo_ref,
                txn,
                *w_id,
                *d_id,
                *c_id,
                lines,
            ),
            TpccFragment::NewOrderRemote { home_w_id, lines } => {
                Self::exec_new_order_remote(store, undo_ref, *home_w_id, lines)
            }
            TpccFragment::PaymentHome {
                w_id,
                d_id,
                c_w_id,
                c_d_id,
                customer,
                amount_cents,
                customer_is_local,
            } => Self::exec_payment_home(
                store,
                undo_ref,
                txn,
                *w_id,
                *d_id,
                *c_w_id,
                *c_d_id,
                customer,
                *amount_cents,
                *customer_is_local,
            ),
            TpccFragment::PaymentCustomer {
                w_id,
                d_id,
                c_w_id,
                c_d_id,
                customer,
                amount_cents,
            } => Self::exec_payment_customer(
                store,
                undo_ref,
                *w_id,
                *d_id,
                *c_w_id,
                *c_d_id,
                customer,
                *amount_cents,
            ),
            TpccFragment::OrderStatus {
                w_id,
                d_id,
                customer,
            } => Self::exec_order_status(store, *w_id, *d_id, customer),
            TpccFragment::Delivery { w_id, carrier_id } => {
                Self::exec_delivery(store, undo_ref, txn, *w_id, *carrier_id)
            }
            TpccFragment::StockLevel {
                w_id,
                d_id,
                threshold,
                depth,
            } => Self::exec_stock_level(store, &mut self.seen, *w_id, *d_id, *threshold, *depth),
        };
        match r {
            // One row operation = one cost unit (TPC-C's hash/B-tree row
            // accesses are cheap relative to the microbenchmark's
            // byte-string read-modify-writes; the paper measured a 26 µs
            // average TPC-C transaction against a 64 µs micro one).
            Ok((output, ops)) => ExecOutcome {
                result: Ok(output),
                ops,
            },
            Err(reason) => {
                // Validation failed before any write (see the engine
                // contract); drop any (empty) undo buffer created above.
                if undo {
                    if let Some(u) = self.undo.get(&txn) {
                        if u.is_empty() {
                            let b = self.undo.remove(&txn).unwrap();
                            self.undo_pool.push(b);
                        }
                    }
                }
                ExecOutcome {
                    result: Err(reason),
                    ops: 1,
                }
            }
        }
    }

    fn rollback(&mut self, txn: TxnId) -> u32 {
        match self.undo.remove(&txn) {
            Some(mut u) => {
                let n = u.len() as u32;
                self.store.rollback_reuse(&mut u);
                self.undo_pool.push(u);
                n
            }
            None => 0,
        }
    }

    fn forget(&mut self, txn: TxnId) -> u32 {
        match self.undo.remove(&txn) {
            Some(mut u) => {
                let n = u.len() as u32;
                u.clear();
                self.undo_pool.push(u);
                n
            }
            None => 0,
        }
    }

    fn snapshot(&self) -> Self {
        // Committed state only: undo the live transactions on a clone of
        // the store, youngest buffer first (see `MicroEngine::snapshot`).
        let mut store = self.store.clone();
        let mut live: Vec<&TpccUndoBuf> = self.undo.values().collect();
        live.sort_by_key(|u| std::cmp::Reverse(u.birth));
        for u in live {
            store.rollback_copy(u);
        }
        TpccEngine::new(store)
    }

    fn lock_set(&self, fragment: &TpccFragment) -> Vec<(LockKey, LockMode)> {
        use LockMode::{Exclusive as X, Shared as S};
        match fragment {
            TpccFragment::NewOrderHome {
                w_id, d_id, lines, ..
            } => {
                // No customer lock: new-order reads only C_DISCOUNT /
                // C_LAST / C_CREDIT, columns no transaction ever writes.
                let mut locks = vec![
                    (db::warehouse_lock(*w_id), S),
                    (db::district_lock(*w_id, *d_id), X),
                    (db::orders_lock(*w_id, *d_id), X),
                ];
                for l in lines.iter() {
                    if self.store.stock_mut_row(l.supply_w_id, l.i_id).is_some() {
                        locks.push((db::stock_lock(l.supply_w_id, l.i_id), X));
                        locks.push((stock_wh_lock(l.supply_w_id), S));
                    }
                }
                locks
            }
            TpccFragment::NewOrderRemote { lines, .. } => {
                let mut locks = Vec::new();
                for l in lines.iter() {
                    if self.store.stock_mut_row(l.supply_w_id, l.i_id).is_some() {
                        locks.push((db::stock_lock(l.supply_w_id, l.i_id), X));
                        locks.push((stock_wh_lock(l.supply_w_id), S));
                    }
                }
                locks
            }
            TpccFragment::PaymentHome {
                w_id,
                d_id,
                c_w_id,
                c_d_id,
                customer_is_local,
                ..
            } => {
                let mut locks = vec![
                    (db::warehouse_lock(*w_id), X),
                    (db::district_lock(*w_id, *d_id), X),
                ];
                if *customer_is_local {
                    locks.push((customers_lock(*c_w_id, *c_d_id), X));
                }
                locks
            }
            TpccFragment::PaymentCustomer { c_w_id, c_d_id, .. } => {
                vec![(customers_lock(*c_w_id, *c_d_id), X)]
            }
            TpccFragment::OrderStatus { w_id, d_id, .. } => vec![
                (customers_lock(*w_id, *d_id), S),
                // The customer's most recent order may be anywhere between
                // the delivery head and the insert tail: share both.
                (db::orders_lock(*w_id, *d_id), S),
                (db::orders_head_lock(*w_id, *d_id), S),
            ],
            TpccFragment::Delivery { w_id, .. } => {
                let mut locks = Vec::new();
                for d in self.store.districts_of(*w_id) {
                    locks.push((db::orders_head_lock(*w_id, d), X));
                    // Shared on the tail granule: when the district's queue
                    // is nearly empty, the oldest undelivered order may be
                    // an uncommitted insert from a prepared multi-partition
                    // new-order; sharing the tail makes delivery wait out
                    // that 2PC instead of reading a dirty row. (New-orders
                    // still never wait behind deliveries: S vs X only
                    // blocks the reader.)
                    locks.push((db::orders_lock(*w_id, d), S));
                    locks.push((customers_lock(*w_id, d), X));
                }
                locks
            }
            TpccFragment::StockLevel { w_id, d_id, .. } => vec![
                (db::district_lock(*w_id, *d_id), S),
                (db::orders_lock(*w_id, *d_id), S),
                (stock_wh_lock(*w_id), X),
            ],
        }
    }
}

// ---------------------------------------------------------------------
// Workload generator
// ---------------------------------------------------------------------

/// Transaction mix (fractions; the remainder after the first four is
/// stock-level). Default is the standard TPC-C full mix.
#[derive(Debug, Clone, Copy)]
pub struct TxnMix {
    pub new_order: f64,
    pub payment: f64,
    pub order_status: f64,
    pub delivery: f64,
}

impl TxnMix {
    pub fn standard() -> Self {
        TxnMix {
            new_order: 0.45,
            payment: 0.43,
            order_status: 0.04,
            delivery: 0.04,
        }
    }

    /// §5.6: 100% new-order.
    pub fn new_order_only() -> Self {
        TxnMix {
            new_order: 1.0,
            payment: 0.0,
            order_status: 0.0,
            delivery: 0.0,
        }
    }

    /// Speculation-rate stress: a delivery/stock-level-heavy mix (25%
    /// delivery, 25% stock-level, remainder new-order/payment/
    /// order-status). Delivery's whole-district lock bundle and
    /// stock-level's exclusive warehouse granule conflict with nearly
    /// everything, so under the locking scheme this mix maximizes waits
    /// and under speculation it maximizes squash cascades — the
    /// conflict-heavy scenario the ROADMAP's workload-diversity item asks
    /// for beyond the standard full mix.
    pub fn delivery_stock_stress() -> Self {
        TxnMix {
            new_order: 0.30,
            payment: 0.15,
            order_status: 0.05,
            delivery: 0.25,
        }
    }

    /// Scan-heavy: stock-level dominant (the remainder after the four
    /// named fractions), with enough new-orders to keep the scanned
    /// order-line window moving. Combined with a large
    /// `TpccConfig::stock_level_depth` this is the TPC-C face of the
    /// scan-length experiments: every stock-level holds the partition for
    /// a long read-only fragment, and under locking its exclusive
    /// warehouse stock granule collides with every concurrent new-order.
    pub fn scan_heavy() -> Self {
        TxnMix {
            new_order: 0.20,
            payment: 0.10,
            order_status: 0.05,
            delivery: 0.05,
        }
    }
}

/// TPC-C workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct TpccConfig {
    pub warehouses: u32,
    pub partitions: u32,
    pub scale: TpccScale,
    pub mix: TxnMix,
    /// Probability an order line's supply warehouse is remote (TPC-C
    /// default 0.01; swept in Figure 9).
    pub remote_item_prob: f64,
    /// Probability a payment is for a remote warehouse's customer (0.15).
    pub remote_payment_prob: f64,
    /// Probability a new-order contains an invalid item (user abort, 0.01).
    pub invalid_item_prob: f64,
    /// Classify transactions as multi-partition whenever they touch a
    /// *remote warehouse*, even if that warehouse happens to live on the
    /// same partition (the classification is made by the client from the
    /// warehouse ids, before knowing the partition layout). This is the
    /// §5.6 setup: with 1% remote items, 9.5% of new-orders are
    /// multi-partition. When false (default, §5.5), only transactions that
    /// physically span partitions are multi-partition.
    pub classify_by_warehouse: bool,
    /// Orders scanned by stock-level's order-line join (TPC-C spec: 20).
    /// The scan-length knob of the scan-heavy experiments: each order
    /// contributes 5–15 order-line rows plus a stock probe per distinct
    /// item, so depth × ~10 is the fragment's row count.
    pub stock_level_depth: u32,
    pub seed: u64,
}

impl TpccConfig {
    pub fn new(warehouses: u32, partitions: u32) -> Self {
        assert!(warehouses >= 1 && partitions >= 1 && warehouses >= partitions);
        TpccConfig {
            warehouses,
            partitions,
            scale: TpccScale::default_scaled(),
            mix: TxnMix::standard(),
            remote_item_prob: 0.01,
            remote_payment_prob: 0.15,
            invalid_item_prob: 0.01,
            classify_by_warehouse: false,
            stock_level_depth: 20,
            seed: 7,
        }
    }

    /// Which partition owns a warehouse: contiguous even split, as in the
    /// paper ("warehouses divided evenly across two partitions").
    pub fn partition_of(&self, w: WId) -> PartitionId {
        PartitionId(((w - 1) * self.partitions) / self.warehouses)
    }

    /// Warehouses owned by one partition.
    pub fn warehouses_of(&self, p: PartitionId) -> Vec<WId> {
        (1..=self.warehouses)
            .filter(|w| self.partition_of(*w) == p)
            .collect()
    }
}

/// An invalid item id (item ids start at 1).
const INVALID_ITEM: IId = 0;

/// Request generator for TPC-C.
pub struct TpccWorkload {
    cfg: TpccConfig,
    /// Per-client RNGs, made at a client's first request: the whole
    /// population's, or one client's alone in its share.
    rngs: FxHashMap<u32, StdRng>,
}

impl TpccWorkload {
    pub fn new(cfg: TpccConfig) -> Self {
        TpccWorkload {
            cfg,
            rngs: FxHashMap::default(),
        }
    }

    pub fn config(&self) -> &TpccConfig {
        &self.cfg
    }

    /// Build and load the engine for one partition: its own partitioned
    /// tables (the local warehouses), and the process's one copy of the
    /// replicated tables, which cover every warehouse.
    pub fn build_engine(&self, p: PartitionId) -> TpccEngine {
        TpccEngine::new(load_partition(
            &self.cfg.warehouses_of(p),
            self.cfg.warehouses,
            &self.cfg.scale,
            self.cfg.seed,
        ))
    }

    fn rng(&mut self, client: u32) -> &mut StdRng {
        let seed = self.cfg.seed;
        self.rngs
            .entry(client)
            .or_insert_with(|| StdRng::seed_from_u64(seed ^ 0xC11E47 ^ ((client as u64) << 24)))
    }

    /// The paper fixes each client to a home warehouse, random district.
    fn home_warehouse(&self, client: u32) -> WId {
        (client % self.cfg.warehouses) + 1
    }

    fn pick_customer(rng: &mut StdRng, scale: &TpccScale) -> CustomerSel {
        if rng.gen_bool(0.6) {
            let max = scale.max_name_number;
            let num = nurand(rng, scale.nurand_a_name, 223, 0, max - 1);
            CustomerSel::ByName(last_name(num).into())
        } else {
            CustomerSel::ById(nurand(
                rng,
                scale.nurand_a_c_id,
                259,
                1,
                scale.customers_per_district as u64,
            ) as CId)
        }
    }

    fn gen_new_order(&mut self, client: u32) -> Request<TpccFragment, TpccOutput> {
        let cfg = self.cfg;
        let w_id = self.home_warehouse(client);
        let rng = self.rng(client);
        let d_id = rng.gen_range(1..=cfg.scale.districts_per_warehouse) as DId;
        let c_id = nurand(
            rng,
            cfg.scale.nurand_a_c_id,
            259,
            1,
            cfg.scale.customers_per_district as u64,
        ) as CId;
        let ol_cnt = rng.gen_range(5..=15u32);
        let invalid = rng.gen_bool(cfg.invalid_item_prob);

        // Built in place in the block the fragment will share.
        let lines: Arc<[OrderLineReq]> = (0..ol_cnt)
            .map(|i| {
                let mut i_id = nurand(
                    rng,
                    cfg.scale.nurand_a_i_id,
                    7911,
                    1,
                    cfg.scale.items as u64,
                ) as IId;
                if invalid && i == ol_cnt - 1 {
                    i_id = INVALID_ITEM; // "unused item number" → user abort
                }
                let supply_w_id = if cfg.warehouses > 1 && rng.gen_bool(cfg.remote_item_prob) {
                    let mut w = rng.gen_range(1..cfg.warehouses);
                    if w >= w_id {
                        w += 1;
                    }
                    w
                } else {
                    w_id
                };
                OrderLineReq {
                    i_id,
                    supply_w_id,
                    quantity: rng.gen_range(1..=10u8),
                }
            })
            .collect();

        // Group remote lines by partition. Lines whose supply warehouse is
        // co-located with the home partition execute in the home fragment.
        let home_p = cfg.partition_of(w_id);
        let mut remote: FxHashMap<PartitionId, Vec<OrderLineReq>> = FxHashMap::default();
        for l in lines.iter() {
            let p = cfg.partition_of(l.supply_w_id);
            if p != home_p {
                remote.entry(p).or_default().push(*l);
            }
        }

        let any_remote_warehouse = lines.iter().any(|l| l.supply_w_id != w_id);
        let home_frag = TpccFragment::NewOrderHome {
            w_id,
            d_id,
            c_id,
            lines,
        };
        let classified_mp = if cfg.classify_by_warehouse {
            any_remote_warehouse
        } else {
            !remote.is_empty()
        };
        if !classified_mp {
            return Request::SinglePartition {
                partition: home_p,
                fragment: home_frag,
                // Reordered validation ⇒ no undo needed for the 1% abort.
                can_abort: false,
            };
        }
        // Simple (single-round), as the paper notes for all distributed
        // TPC-C transactions: the home fragment, then one stock-update
        // fragment per remote partition in partition order; the result is
        // the home's. With no remote partition (by-warehouse
        // classification, every remote warehouse on the home partition) it
        // has one participant and still pays the coordinator and 2PC.
        let remotes = remote.into_iter().map(|(p, ls)| {
            let stock = TpccFragment::NewOrderRemote {
                home_w_id: w_id,
                lines: ls.into(),
            };
            (p, stock)
        });
        let mut fragments: Vec<_> = iter::once((home_p, home_frag)).chain(remotes).collect();
        fragments[1..].sort_by_key(|(p, _)| *p);
        Request::MultiPartition {
            procedure: Box::new(OneRound {
                fragments: fragments.into(),
                finish: first_output,
            }),
            can_abort: false,
        }
    }

    fn gen_payment(&mut self, client: u32) -> Request<TpccFragment, TpccOutput> {
        let cfg = self.cfg;
        let w_id = self.home_warehouse(client);
        let rng = self.rng(client);
        let d_id = rng.gen_range(1..=cfg.scale.districts_per_warehouse) as DId;
        let amount = rng.gen_range(100..=500_000i64);
        // 85% home customer / 15% remote warehouse customer.
        let (c_w_id, c_d_id) = if cfg.warehouses > 1 && rng.gen_bool(cfg.remote_payment_prob) {
            let mut w = rng.gen_range(1..cfg.warehouses);
            if w >= w_id {
                w += 1;
            }
            (
                w,
                rng.gen_range(1..=cfg.scale.districts_per_warehouse) as DId,
            )
        } else {
            (w_id, d_id)
        };
        let customer = Self::pick_customer(rng, &cfg.scale);

        let home_p = cfg.partition_of(w_id);
        let cust_p = cfg.partition_of(c_w_id);
        let classified_sp = if cfg.classify_by_warehouse {
            c_w_id == w_id
        } else {
            home_p == cust_p
        };
        let home = |customer, customer_is_local| TpccFragment::PaymentHome {
            w_id,
            d_id,
            c_w_id,
            c_d_id,
            customer,
            amount_cents: amount,
            customer_is_local,
        };
        if classified_sp {
            return Request::SinglePartition {
                partition: home_p,
                fragment: home(customer, true),
                can_abort: false,
            };
        }
        // The result is the customer's, whose fragment is dispatched last.
        // A remote warehouse on the home partition (by-warehouse
        // classification) is a one-participant transaction that still pays
        // the coordinator round trip and 2PC.
        let fragments = if home_p == cust_p {
            Arc::from([(home_p, home(customer, true))])
        } else {
            let home = (home_p, home(customer.clone(), false));
            let customer = TpccFragment::PaymentCustomer {
                w_id,
                d_id,
                c_w_id,
                c_d_id,
                customer,
                amount_cents: amount,
            };
            Arc::from([home, (cust_p, customer)])
        };
        Request::MultiPartition {
            procedure: Box::new(OneRound {
                fragments,
                finish: last_output,
            }),
            can_abort: false,
        }
    }
}

/// TPC-C NURand (clause 2.1.6) on a `rand` RNG.
fn nurand(rng: &mut StdRng, a: u64, c: u64, lo: u64, hi: u64) -> u64 {
    let r1 = rng.gen_range(0..=a);
    let r2 = rng.gen_range(lo..=hi);
    (((r1 | r2) + c) % (hi - lo + 1)) + lo
}

impl RequestGenerator for TpccWorkload {
    type Engine = TpccEngine;

    fn next_request(&mut self, client: ClientId) -> Request<TpccFragment, TpccOutput> {
        let c = client.0;
        let mix = self.cfg.mix;
        let roll: f64 = self.rng(c).gen();
        if roll < mix.new_order {
            self.gen_new_order(c)
        } else if roll < mix.new_order + mix.payment {
            self.gen_payment(c)
        } else if roll < mix.new_order + mix.payment + mix.order_status {
            let cfg = self.cfg;
            let w_id = self.home_warehouse(c);
            let rng = self.rng(c);
            let d_id = rng.gen_range(1..=cfg.scale.districts_per_warehouse) as DId;
            let customer = Self::pick_customer(rng, &cfg.scale);
            Request::SinglePartition {
                partition: cfg.partition_of(w_id),
                fragment: TpccFragment::OrderStatus {
                    w_id,
                    d_id,
                    customer,
                },
                can_abort: false,
            }
        } else if roll < mix.new_order + mix.payment + mix.order_status + mix.delivery {
            let cfg = self.cfg;
            let w_id = self.home_warehouse(c);
            let carrier = self.rng(c).gen_range(1..=10u8);
            Request::SinglePartition {
                partition: cfg.partition_of(w_id),
                fragment: TpccFragment::Delivery {
                    w_id,
                    carrier_id: carrier,
                },
                can_abort: false,
            }
        } else {
            let cfg = self.cfg;
            let w_id = self.home_warehouse(c);
            let rng = self.rng(c);
            let d_id = rng.gen_range(1..=cfg.scale.districts_per_warehouse) as DId;
            let threshold = rng.gen_range(10..=20);
            Request::SinglePartition {
                partition: cfg.partition_of(w_id),
                fragment: TpccFragment::StockLevel {
                    w_id,
                    d_id,
                    threshold,
                    depth: cfg.stock_level_depth,
                },
                can_abort: false,
            }
        }
    }

    fn for_client(&mut self, client: ClientId) -> Option<Self> {
        let rng = self.rng(client.0).clone();
        Some(TpccWorkload {
            cfg: self.cfg,
            rngs: FxHashMap::from_iter([(client.0, rng)]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_core::Step;
    use hcc_storage::tpcc::consistency;

    fn cfg_tiny(warehouses: u32, partitions: u32) -> TpccConfig {
        let mut c = TpccConfig::new(warehouses, partitions);
        c.scale = TpccScale::tiny();
        c
    }

    fn engine1() -> TpccEngine {
        TpccWorkload::new(cfg_tiny(1, 1)).build_engine(PartitionId(0))
    }

    fn txid(n: u32) -> TxnId {
        TxnId::new(ClientId(0), n)
    }

    fn lines(w: WId, items: &[IId]) -> Arc<[OrderLineReq]> {
        items
            .iter()
            .map(|&i| OrderLineReq {
                i_id: i,
                supply_w_id: w,
                quantity: 3,
            })
            .collect()
    }

    #[test]
    fn new_order_executes_and_stays_consistent() {
        let mut e = engine1();
        let frag = TpccFragment::NewOrderHome {
            w_id: 1,
            d_id: 1,
            c_id: 1,
            lines: lines(1, &[1, 2, 3, 4, 5]),
        };
        let out = e.execute(txid(1), &frag, false);
        let TpccOutput::NewOrder { o_id, total_cents } = out.result.unwrap() else {
            panic!("wrong output");
        };
        assert!(total_cents > 0);
        assert!(out.ops >= 5 + 5 + 5);
        // The order is queryable and consistency holds.
        assert!(e.store.order(1, 1, o_id).is_some());
        let queue = e.store.district_orders(1, 1).unwrap();
        assert!(queue.new_orders().any(|o| o == o_id));
        consistency::check(&e.store).expect("consistent after new-order");
    }

    #[test]
    fn new_order_rollback_restores_exact_state() {
        let mut e = engine1();
        let before = e.store.fingerprint();
        let frag = TpccFragment::NewOrderHome {
            w_id: 1,
            d_id: 2,
            c_id: 5,
            lines: lines(1, &[7, 8, 9, 10, 11, 12]),
        };
        e.execute(txid(2), &frag, true).result.unwrap();
        assert_ne!(e.store.fingerprint(), before);
        e.rollback(txid(2));
        assert_eq!(e.store.fingerprint(), before);
        assert_eq!(e.live_undo_buffers(), 0);
        consistency::check(&e.store).expect("consistent after rollback");
    }

    #[test]
    fn invalid_item_aborts_without_effects() {
        let mut e = engine1();
        let before = e.store.fingerprint();
        let frag = TpccFragment::NewOrderHome {
            w_id: 1,
            d_id: 1,
            c_id: 1,
            lines: lines(1, &[1, 2, 3, 4, INVALID_ITEM]),
        };
        // Even with undo enabled, the reordered validation means no
        // mutation ever happens.
        let out = e.execute(txid(3), &frag, true);
        assert_eq!(out.result.unwrap_err(), AbortReason::User);
        assert_eq!(e.store.fingerprint(), before);
        assert_eq!(e.live_undo_buffers(), 0, "no undo buffer accumulated");
    }

    #[test]
    fn stock_decrements_with_wraparound() {
        let mut e = engine1();
        let before = e.store.stock_mut_row(1, 1).unwrap().quantity;
        let frag = TpccFragment::NewOrderHome {
            w_id: 1,
            d_id: 1,
            c_id: 1,
            lines: Arc::new([OrderLineReq {
                i_id: 1,
                supply_w_id: 1,
                quantity: 5,
            }]),
        };
        e.execute(txid(4), &frag, false).result.unwrap();
        let after = e.store.stock_mut_row(1, 1).unwrap();
        let expect = if before - 5 < 10 {
            before - 5 + 91
        } else {
            before - 5
        };
        assert_eq!(after.quantity, expect);
        assert_eq!(after.ytd, 5);
        assert_eq!(after.order_cnt, 1);
        assert_eq!(after.remote_cnt, 0);
    }

    #[test]
    fn payment_updates_ytds_and_customer() {
        let mut e = engine1();
        let w_before = e.store.warehouse(1).unwrap().ytd_cents;
        let d_before = e.store.district(1, 1).unwrap().ytd_cents;
        let c_before = e.store.customer(1, 1, 3).unwrap().balance_cents;
        let h_before = e.store.history.len();
        let frag = TpccFragment::PaymentHome {
            w_id: 1,
            d_id: 1,
            c_w_id: 1,
            c_d_id: 1,
            customer: CustomerSel::ById(3),
            amount_cents: 1234,
            customer_is_local: true,
        };
        let out = e.execute(txid(5), &frag, false).result.unwrap();
        let TpccOutput::Payment {
            c_id,
            c_balance_cents,
        } = out
        else {
            panic!()
        };
        assert_eq!(c_id, 3);
        assert_eq!(c_balance_cents, c_before - 1234);
        assert_eq!(e.store.warehouse(1).unwrap().ytd_cents, w_before + 1234);
        assert_eq!(e.store.district(1, 1).unwrap().ytd_cents, d_before + 1234);
        assert_eq!(e.store.history.len(), h_before + 1);
        consistency::check(&e.store).expect("consistent after payment");
    }

    #[test]
    fn payment_by_name_resolves_midpoint_customer() {
        let mut e = engine1();
        // Name number 0 always exists (sequential assignment at load).
        let name = last_name(0);
        let expect = e.store.customer_by_name_midpoint(1, 1, &name).unwrap();
        let frag = TpccFragment::PaymentHome {
            w_id: 1,
            d_id: 1,
            c_w_id: 1,
            c_d_id: 1,
            customer: CustomerSel::ByName(name.into()),
            amount_cents: 100,
            customer_is_local: true,
        };
        let TpccOutput::Payment { c_id, .. } = e.execute(txid(6), &frag, false).result.unwrap()
        else {
            panic!()
        };
        assert_eq!(c_id, expect);
    }

    #[test]
    fn payment_rollback_restores_state() {
        let mut e = engine1();
        let before = e.store.fingerprint();
        let frag = TpccFragment::PaymentHome {
            w_id: 1,
            d_id: 2,
            c_w_id: 1,
            c_d_id: 2,
            customer: CustomerSel::ById(7),
            amount_cents: 999,
            customer_is_local: true,
        };
        e.execute(txid(7), &frag, true).result.unwrap();
        e.rollback(txid(7));
        assert_eq!(e.store.fingerprint(), before);
    }

    #[test]
    fn order_status_reports_last_order() {
        let mut e = engine1();
        // Place an order for customer 1, then query it.
        let frag = TpccFragment::NewOrderHome {
            w_id: 1,
            d_id: 1,
            c_id: 1,
            lines: lines(1, &[1, 2, 3, 4, 5, 6]),
        };
        let TpccOutput::NewOrder { o_id, .. } = e.execute(txid(8), &frag, false).result.unwrap()
        else {
            panic!()
        };
        let q = TpccFragment::OrderStatus {
            w_id: 1,
            d_id: 1,
            customer: CustomerSel::ById(1),
        };
        let TpccOutput::OrderStatus {
            c_id,
            last_o_id,
            lines: n,
            ..
        } = e.execute(txid(9), &q, false).result.unwrap()
        else {
            panic!()
        };
        assert_eq!(c_id, 1);
        assert_eq!(last_o_id, Some(o_id));
        assert_eq!(n, 6);
    }

    #[test]
    fn delivery_clears_oldest_new_orders() {
        let mut e = engine1();
        let oldest = e.store.oldest_new_order(1, 1).unwrap();
        let frag = TpccFragment::Delivery {
            w_id: 1,
            carrier_id: 4,
        };
        let TpccOutput::Delivery { orders_delivered } =
            e.execute(txid(10), &frag, false).result.unwrap()
        else {
            panic!()
        };
        // tiny scale has 2 districts with undelivered orders.
        assert_eq!(orders_delivered, 2);
        assert_ne!(e.store.oldest_new_order(1, 1), Some(oldest));
        let ord = e.store.order(1, 1, oldest).unwrap();
        assert_eq!(ord.carrier_id, Some(4));
        // Delivered lines are stamped; customer balance moved.
        let ol: Vec<_> = e.store.order_lines(1, 1, oldest).collect();
        assert!(ol.iter().all(|l| l.delivery_d.is_some()));
        consistency::check(&e.store).expect("consistent after delivery");
    }

    #[test]
    fn delivery_rollback_restores_state() {
        let mut e = engine1();
        let before = e.store.fingerprint();
        let frag = TpccFragment::Delivery {
            w_id: 1,
            carrier_id: 9,
        };
        e.execute(txid(11), &frag, true).result.unwrap();
        assert_ne!(e.store.fingerprint(), before);
        e.rollback(txid(11));
        assert_eq!(e.store.fingerprint(), before);
        consistency::check(&e.store).expect("consistent after delivery rollback");
    }

    #[test]
    fn stock_level_depth_controls_scan_length() {
        let mut e = engine1();
        let mut ops_at = |depth: u32| {
            let frag = TpccFragment::StockLevel {
                w_id: 1,
                d_id: 1,
                threshold: 101,
                depth,
            };
            e.execute(txid(14), &frag, false).ops
        };
        let shallow = ops_at(1);
        let deep = ops_at(20);
        assert!(
            deep > shallow,
            "deeper stock-level must scan more rows ({shallow} vs {deep})"
        );
    }

    #[test]
    fn stock_level_counts_low_stock() {
        let mut e = engine1();
        // Threshold above the max initial quantity: every distinct item in
        // the last 20 orders counts.
        let frag = TpccFragment::StockLevel {
            w_id: 1,
            d_id: 1,
            threshold: 101,
            depth: 20,
        };
        let TpccOutput::StockLevel { low_stock } =
            e.execute(txid(12), &frag, false).result.unwrap()
        else {
            panic!()
        };
        assert!(low_stock > 0);
        // Threshold below min: zero.
        let frag = TpccFragment::StockLevel {
            w_id: 1,
            d_id: 1,
            threshold: 0,
            depth: 20,
        };
        let TpccOutput::StockLevel { low_stock } =
            e.execute(txid(13), &frag, false).result.unwrap()
        else {
            panic!()
        };
        assert_eq!(low_stock, 0);
    }

    #[test]
    fn partition_mapping_even_split() {
        let cfg = TpccConfig::new(20, 2);
        assert_eq!(
            cfg.warehouses_of(PartitionId(0)),
            (1..=10).collect::<Vec<_>>()
        );
        assert_eq!(
            cfg.warehouses_of(PartitionId(1)),
            (11..=20).collect::<Vec<_>>()
        );
        let cfg = TpccConfig::new(6, 6);
        for w in 1..=6 {
            assert_eq!(cfg.partition_of(w), PartitionId(w - 1));
        }
    }

    /// The multi-partition share of 20,000 requests drawn round-robin
    /// over `clients` clients.
    fn mp_fraction(cfg: TpccConfig, clients: u32) -> f64 {
        let mut w = TpccWorkload::new(cfg);
        let requests = 20_000u32;
        let mp = (0..requests)
            .filter(|i| {
                let r = w.next_request(ClientId(i % clients));
                matches!(r, Request::MultiPartition { .. })
            })
            .count();
        mp as f64 / requests as f64
    }

    #[test]
    fn mp_fraction_matches_paper_two_warehouses() {
        // Paper §5.5: 10.7% multi-partition with 2 warehouses on 2
        // partitions.
        let frac = mp_fraction(cfg_tiny(2, 2), 8);
        assert!((0.09..=0.125).contains(&frac), "MP fraction {frac}");
    }

    #[test]
    fn mp_fraction_matches_paper_twenty_warehouses() {
        // Paper §5.5: 5.7% with 20 warehouses on 2 partitions.
        let frac = mp_fraction(cfg_tiny(20, 2), 40);
        assert!((0.043..=0.072).contains(&frac), "MP fraction {frac}");
    }

    #[test]
    fn new_order_only_mix_mp_scaling() {
        // Paper §5.6: remote probability 0.01 ⇒ ~9.5% MP with one
        // warehouse per partition.
        let mut cfg = cfg_tiny(6, 6);
        cfg.mix = TxnMix::new_order_only();
        let frac = mp_fraction(cfg, 12);
        assert!((0.075..=0.115).contains(&frac), "MP fraction {frac}");
    }

    #[test]
    fn remote_new_order_is_simple_multi_partition() {
        let mut cfg = cfg_tiny(2, 2);
        cfg.remote_item_prob = 1.0; // force remote
        cfg.mix = TxnMix::new_order_only();
        cfg.invalid_item_prob = 0.0;
        let mut w = TpccWorkload::new(cfg);
        let req = w.next_request(ClientId(0));
        match req {
            Request::MultiPartition { procedure, .. } => {
                let Step::Round {
                    fragments,
                    is_final,
                } = procedure.step(&[])
                else {
                    panic!()
                };
                assert!(is_final, "single-round (simple) MP transaction");
                assert_eq!(fragments.len(), 2);
            }
            _ => panic!("all-remote new-order must be MP"),
        }
    }

    #[test]
    fn remote_stock_update_applies_at_remote_partition() {
        let cfg = cfg_tiny(2, 2);
        let w = TpccWorkload::new(cfg);
        // Partition 1 owns warehouse 2.
        let mut e1 = w.build_engine(PartitionId(1));
        let before = e1.store.stock_mut_row(2, 1).unwrap().quantity;
        let frag = TpccFragment::NewOrderRemote {
            home_w_id: 1,
            lines: Arc::new([OrderLineReq {
                i_id: 1,
                supply_w_id: 2,
                quantity: 4,
            }]),
        };
        let TpccOutput::StockUpdated { items } = e1.execute(txid(20), &frag, true).result.unwrap()
        else {
            panic!()
        };
        assert_eq!(items, 1);
        let s = e1.store.stock_mut_row(2, 1).unwrap();
        assert_eq!(s.remote_cnt, 1, "remote order counted");
        let expect = if before - 4 < 10 {
            before - 4 + 91
        } else {
            before - 4
        };
        assert_eq!(s.quantity, expect);
    }

    #[test]
    fn lock_sets_cover_written_tables() {
        let e = engine1();
        let no = TpccFragment::NewOrderHome {
            w_id: 1,
            d_id: 1,
            c_id: 1,
            lines: lines(1, &[1, 2]),
        };
        let locks = e.lock_set(&no);
        assert!(locks.contains(&(db::warehouse_lock(1), LockMode::Shared)));
        assert!(locks.contains(&(db::district_lock(1, 1), LockMode::Exclusive)));
        assert!(locks.contains(&(db::orders_lock(1, 1), LockMode::Exclusive)));
        assert!(
            !locks.iter().any(|(k, _)| *k == customers_lock(1, 1)),
            "new-order reads only never-written customer columns"
        );
        // Delivery must not exclusively lock anything new-order touches:
        // it shares the tail (so it cannot read uncommitted inserts) but
        // never blocks new-orders behind its whole district bundle.
        let del = e.lock_set(&TpccFragment::Delivery {
            w_id: 1,
            carrier_id: 1,
        });
        for (k, m) in &del {
            if locks.iter().any(|(k2, _)| k == k2) {
                assert_eq!(*m, LockMode::Shared, "delivery must only share {k:?}");
            }
        }
        assert!(locks.contains(&(db::stock_lock(1, 1), LockMode::Exclusive)));
        assert!(locks.contains(&(stock_wh_lock(1), LockMode::Shared)));

        let pay = TpccFragment::PaymentHome {
            w_id: 1,
            d_id: 1,
            c_w_id: 1,
            c_d_id: 1,
            customer: CustomerSel::ById(1),
            amount_cents: 1,
            customer_is_local: true,
        };
        let locks = e.lock_set(&pay);
        assert!(locks.contains(&(db::warehouse_lock(1), LockMode::Exclusive)));
        assert!(locks.contains(&(customers_lock(1, 1), LockMode::Exclusive)));

        let sl = TpccFragment::StockLevel {
            w_id: 1,
            d_id: 1,
            threshold: 10,
            depth: 20,
        };
        let locks = e.lock_set(&sl);
        assert!(locks.contains(&(stock_wh_lock(1), LockMode::Exclusive)));
    }

    #[test]
    fn payment_and_new_order_conflict_on_district_and_warehouse() {
        // The paper: "nearly every transaction modifies the warehouse and
        // district records" — verify the lock sets conflict as described.
        let e = engine1();
        let no = e.lock_set(&TpccFragment::NewOrderHome {
            w_id: 1,
            d_id: 1,
            c_id: 1,
            lines: lines(1, &[1]),
        });
        let pay = e.lock_set(&TpccFragment::PaymentHome {
            w_id: 1,
            d_id: 1,
            c_w_id: 1,
            c_d_id: 1,
            customer: CustomerSel::ById(1),
            amount_cents: 1,
            customer_is_local: true,
        });
        let conflict = no.iter().any(|(k, m)| {
            pay.iter().any(|(k2, m2)| {
                k == k2 && !(matches!(m, LockMode::Shared) && matches!(m2, LockMode::Shared))
            })
        });
        assert!(
            conflict,
            "same-district payment and new-order must conflict"
        );
    }

    /// Sharing what a fragment carries must not move a byte of the log.
    #[test]
    fn log_encoding_is_pinned_byte_for_byte() {
        use hcc_common::codec::{decode_exact, encode_to_vec};
        let new_order = TpccFragment::NewOrderHome {
            w_id: 2,
            d_id: 9,
            c_id: 0x0102,
            lines: Arc::new([OrderLineReq {
                i_id: 7,
                supply_w_id: 3,
                quantity: 5,
            }]),
        };
        #[rustfmt::skip]
        let want = [
            0, 2, 0, 0, 0, 9, 2, 1, 0, 0, // tag, w_id, d_id, c_id
            1, 0, 0, 0, 7, 0, 0, 0, 3, 0, 0, 0, 5, // one line
        ];
        assert_eq!(encode_to_vec(&new_order), want);
        let by_name = TpccFragment::OrderStatus {
            w_id: 1,
            d_id: 4,
            customer: CustomerSel::ByName("ABLE".into()),
        };
        #[rustfmt::skip]
        let want = [4, 1, 0, 0, 0, 4, 1, 4, 0, 0, 0, b'A', b'B', b'L', b'E'];
        assert_eq!(encode_to_vec(&by_name), want);
        for frag in [new_order, by_name] {
            let back: TpccFragment = decode_exact(&encode_to_vec(&frag)).expect("decodes");
            assert_eq!(format!("{back:?}"), format!("{frag:?}"));
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = TpccWorkload::new(cfg_tiny(2, 2));
        let mut b = TpccWorkload::new(cfg_tiny(2, 2));
        for i in 0..100 {
            let ra = format!("{:?}", a.next_request(ClientId(i % 5)));
            let rb = format!("{:?}", b.next_request(ClientId(i % 5)));
            assert_eq!(ra, rb);
        }
    }

    /// Table-by-table equality: `fingerprint()` does not see `c_data`
    /// contents, names or `dist_info`, and says nothing about which table
    /// differs.
    fn assert_same_tables(a: &TpccStore, b: &TpccStore, what: &str) {
        assert!(a.warehouse == b.warehouse, "warehouse differs {what}");
        assert!(a.district == b.district, "district differs {what}");
        assert!(a.customer == b.customer, "customer differs {what}");
        assert!(a.stock == b.stock, "stock differs {what}");
        // ORDER, NEW-ORDER, ORDER-LINE and the last-order index, per district.
        assert!(a.orders == b.orders, "orders differ {what}");
        assert!(a.history == b.history, "history differs {what}");
    }

    /// The fragments of one generated request, with their partitions.
    fn fragments_of(req: Request<TpccFragment, TpccOutput>) -> Vec<(PartitionId, TpccFragment)> {
        match req {
            Request::SinglePartition {
                partition,
                fragment,
                ..
            } => vec![(partition, fragment)],
            Request::MultiPartition { procedure, .. } => match procedure.step(&[]) {
                Step::Round { fragments, .. } => fragments,
                Step::Finish(_) => panic!("a procedure starts with a round"),
            },
        }
    }

    /// The first `n` requests of the standard mix at tiny scale, two
    /// warehouses on two partitions, as per-partition fragments.
    fn standard_stream(n: u32) -> Vec<Vec<(PartitionId, TpccFragment)>> {
        let mut w = TpccWorkload::new(cfg_tiny(2, 2));
        (0..n)
            .map(|i| fragments_of(w.next_request(ClientId(i % 8))))
            .collect()
    }

    fn engines2() -> [TpccEngine; 2] {
        let w = TpccWorkload::new(cfg_tiny(2, 2));
        [
            w.build_engine(PartitionId(0)),
            w.build_engine(PartitionId(1)),
        ]
    }

    #[test]
    fn field_level_undo_restores_every_table() {
        const REQUESTS: u32 = 2_000;
        let stream = standard_stream(REQUESTS);
        let mut engines = engines2();
        // What the stream must contain for the test to mean anything.
        let (mut bad_by_id, mut bad_by_name, mut deliveries) = (0, 0, 0);
        let (mut remote_new_order, mut remote_payment, mut invalid_items) = (0, 0, 0);
        for (n, frags) in stream.iter().enumerate() {
            let txn = txid(n as u32 + 1);
            for (p, frag) in frags {
                let e = &mut engines[p.as_usize()];
                match frag {
                    TpccFragment::PaymentHome {
                        c_w_id,
                        c_d_id,
                        customer,
                        customer_is_local: true,
                        ..
                    }
                    | TpccFragment::PaymentCustomer {
                        c_w_id,
                        c_d_id,
                        customer,
                        ..
                    } => {
                        let c = TpccEngine::resolve_customer(&e.store, *c_w_id, *c_d_id, customer)
                            .expect("generated customers exist");
                        let bad = e.store.customer(*c_w_id, *c_d_id, c).unwrap().credit
                            == db::Credit::Bad;
                        match customer {
                            CustomerSel::ById(_) => bad_by_id += u32::from(bad),
                            CustomerSel::ByName(_) => bad_by_name += u32::from(bad),
                        }
                        remote_payment +=
                            u32::from(matches!(frag, TpccFragment::PaymentCustomer { .. }));
                    }
                    TpccFragment::Delivery { .. } => deliveries += 1,
                    TpccFragment::NewOrderRemote { .. } => remote_new_order += 1,
                    _ => {}
                }
                let before = e.store.clone();
                let what = format!("after rolling back request {n}: {frag:?}");
                let attempt = e.execute(txn, frag, true);
                if attempt.result.is_err() {
                    invalid_items += 1;
                    assert_eq!(e.live_undo_buffers(), 0, "{what}");
                } else {
                    e.rollback(txn);
                }
                assert_same_tables(&e.store, &before, &what);
                // Advance the state so later requests see earlier ones.
                let applied = e.execute(txn, frag, false);
                assert_eq!(applied.ops, attempt.ops, "{what}");
                assert_eq!(applied.result, attempt.result, "{what}");
            }
        }
        assert!(bad_by_id > 0 && bad_by_name > 0, "bad-credit payments");
        assert!(deliveries > 0 && remote_new_order > 0 && remote_payment > 0);
        assert!(invalid_items > 0, "the 1 % invalid-item aborts");

        // Recording undo must not change what executes: the same stream,
        // executed and forgotten, with and without undo.
        let (mut with_undo, mut without) = (engines2(), engines2());
        for (n, frags) in stream.iter().enumerate() {
            let txn = txid(n as u32 + 1);
            for (p, frag) in frags {
                let a = with_undo[p.as_usize()].execute(txn, frag, true);
                let b = without[p.as_usize()].execute(txn, frag, false);
                assert_eq!((a.ops, &a.result), (b.ops, &b.result), "request {n}");
                with_undo[p.as_usize()].forget(txn);
            }
        }
        for p in 0..2 {
            let what = format!("between undo and no-undo engines of partition {p}");
            assert_same_tables(&with_undo[p].store, &without[p].store, &what);
            assert_same_tables(&with_undo[p].store, &engines[p].store, &what);
            assert_eq!(with_undo[p].live_undo_buffers(), 0);
        }
    }

    /// The TPC-C state a fixed stream leaves behind, pinned: a change to
    /// how the store lays out its tables must reproduce it bit for bit,
    /// not only stay self-consistent. Every fragment runs with undo and
    /// is then forgotten, so undo recording is on the path too.
    #[test]
    fn tpcc_fingerprint_is_pinned() {
        const REQUESTS: u32 = 20_000;
        let mut w = TpccWorkload::new(cfg_tiny(4, 2));
        let mut engines = [
            w.build_engine(PartitionId(0)),
            w.build_engine(PartitionId(1)),
        ];
        for n in 0..REQUESTS {
            let txn = txid(n + 1);
            for (p, frag) in fragments_of(w.next_request(ClientId(n % 8))) {
                let e = &mut engines[p.as_usize()];
                e.execute(txn, &frag, true);
                e.forget(txn);
            }
        }
        let got = engines.map(|e| e.store.fingerprint());
        assert_eq!(
            got,
            [0x50e1_a577_9d4b_fb53, 0xe6eb_5ca8_93aa_5f9c],
            "{got:#018x?}"
        );
    }

    /// Rolling back a payment removes its own HISTORY row, not the newest
    /// one: a payment that appended after it may still commit.
    #[test]
    fn history_undo_removes_the_aborted_payments_row() {
        let mut e = TpccWorkload::new(cfg_tiny(2, 1)).build_engine(PartitionId(0));
        let pay = |w_id| TpccFragment::PaymentHome {
            w_id,
            d_id: 1,
            c_w_id: w_id,
            c_d_id: 1,
            customer: CustomerSel::ById(1),
            amount_cents: 100,
            customer_is_local: true,
        };
        let (a, b) = (txid(1), txid(2));
        e.execute(a, &pay(1), true).result.unwrap();
        e.execute(b, &pay(2), true).result.unwrap();
        let n = e.store.history.len();
        e.rollback(a);
        e.forget(b);
        assert_eq!(e.store.history.len(), n - 1);
        let last = e.store.history.last().unwrap();
        assert_eq!((last.w_id, last.date), (2, b.0), "B's row survives");
    }

    /// The §3.3 snapshot path (`rollback_copy` on a clone, youngest buffer
    /// first) lands where consuming rollbacks of the same buffers do.
    #[test]
    fn rollback_copy_matches_rollback_with_live_buffers() {
        let mut e = engine1();
        // A bad-credit customer, so one buffer carries a `c_data` copy.
        let bad = (1..=30)
            .find(|c| e.store.customer(1, 1, *c).unwrap().credit == db::Credit::Bad)
            .expect("tiny scale loads a bad-credit customer in district 1");
        let committed = e.store.clone();
        let live = [
            TpccFragment::PaymentHome {
                w_id: 1,
                d_id: 1,
                c_w_id: 1,
                c_d_id: 1,
                customer: CustomerSel::ById(bad),
                amount_cents: 4_200,
                customer_is_local: true,
            },
            TpccFragment::NewOrderHome {
                w_id: 1,
                d_id: 1,
                c_id: bad,
                lines: lines(1, &[3, 4, 5, 6, 7]),
            },
            // Touches the same customer table, district 1's order queue
            // and the lines of its oldest order.
            TpccFragment::Delivery {
                w_id: 1,
                carrier_id: 2,
            },
        ];
        for (n, frag) in live.iter().enumerate() {
            e.execute(txid(50 + n as u32), frag, true).result.unwrap();
        }
        assert_eq!(e.live_undo_buffers(), 3);
        let snapshot = e.snapshot();
        assert_same_tables(&snapshot.store, &committed, "in the snapshot");
        for n in (0..live.len()).rev() {
            assert!(e.rollback(txid(50 + n as u32)) > 0);
        }
        assert_same_tables(&e.store, &snapshot.store, "after consuming rollbacks");
    }

    #[test]
    fn engines_share_replicated_tables() {
        let w = TpccWorkload::new(cfg_tiny(4, 2));
        let e0 = w.build_engine(PartitionId(0));
        let e1 = w.build_engine(PartitionId(1));
        // One copy, not two equal ones; a snapshot shares it too.
        assert!(Arc::ptr_eq(&e0.store.replicated, &e1.store.replicated));
        let snapshot = e0.snapshot();
        assert!(Arc::ptr_eq(
            &snapshot.store.replicated,
            &e0.store.replicated
        ));
        assert!(e0.store.warehouse(1).is_some());
        assert!(e0.store.warehouse(3).is_none());
        assert!(e1.store.warehouse(3).is_some());
    }
}

#[cfg(test)]
mod full_scale_tests {
    use super::*;
    use hcc_storage::tpcc::consistency;

    /// The full TPC-C cardinalities (100 000 items, 3 000 customers per
    /// district) load and execute correctly — the scaled-down default used
    /// by the benchmarks changes constants, not behaviour.
    #[test]
    fn full_scale_loads_and_executes() {
        let mut cfg = TpccConfig::new(1, 1);
        cfg.scale = TpccScale::full();
        let w = TpccWorkload::new(cfg);
        let mut e = w.build_engine(PartitionId(0));
        assert_eq!(e.store.replicated.item.len(), 100_000);
        assert_eq!(e.store.customer.len(), 30_000);
        assert_eq!(e.store.stock.len(), 100_000);

        let frag = TpccFragment::NewOrderHome {
            w_id: 1,
            d_id: 1,
            c_id: 2999,
            lines: (1..=10)
                .map(|i| OrderLineReq {
                    i_id: i * 9_999,
                    supply_w_id: 1,
                    quantity: 5,
                })
                .collect(),
        };
        let out = e.execute(TxnId::new(ClientId(0), 1), &frag, false);
        assert!(out.result.is_ok());
        let pay = TpccFragment::PaymentHome {
            w_id: 1,
            d_id: 10,
            c_w_id: 1,
            c_d_id: 10,
            customer: CustomerSel::ByName(last_name(999).into()),
            amount_cents: 5_000,
            customer_is_local: true,
        };
        assert!(e
            .execute(TxnId::new(ClientId(0), 2), &pay, false)
            .result
            .is_ok());
        consistency::check(&e.store).expect("full-scale store consistent");
    }
}
