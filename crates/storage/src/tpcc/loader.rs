//! Initial TPC-C population (clause 4.3), deterministic per seed.
//!
//! `load_partition` fills a [`TpccStore`] with the partitioned data of the
//! warehouses assigned to one partition plus the replicated tables (ITEM
//! and the read-only half of STOCK for *all* warehouses). Two partitions
//! loaded with the same seed therefore hold identical replicated tables,
//! like the paper's system where those tables are copied to every node.

use super::scale::TpccScale;
use super::schema::*;
use super::store::{DistrictOrders, TpccStore};
use hcc_common::rng::SplitMix64;

/// Epoch used for all load-time dates.
const LOAD_DATE: u64 = 1_000_000;

fn rand_str(rng: &mut SplitMix64, lo: usize, hi: usize) -> String {
    let mut buf = [0u8; 64];
    let n = rng.alnum_into(&mut buf, lo, hi);
    String::from_utf8_lossy(&buf[..n]).into_owned()
}

/// A `CHAR(24)` column: the draws of `rand_str(rng, 24, 24)`, kept inline.
fn dist_info(rng: &mut SplitMix64) -> DistInfo {
    let mut buf = DistInfo::default();
    rng.alnum_into(&mut buf, 24, 24);
    buf
}

fn zip(rng: &mut SplitMix64) -> String {
    format!("{:04}11111", rng.range_inclusive(0, 9999))
}

/// Customer last-name number for load: the first customers get sequential
/// name numbers (so every name in range exists), the rest are NURand.
fn load_name_number(rng: &mut SplitMix64, c_id: CId, scale: &TpccScale) -> u64 {
    let n = scale.max_name_number;
    if (c_id as u64) <= n {
        (c_id as u64) - 1
    } else {
        rng.nurand(scale.nurand_a_name, 173, 0, n - 1)
    }
}

/// Load `store` with the data for `local_warehouses` (partitioned tables)
/// out of `all_warehouses` total (replicated tables cover all of them).
pub fn load_partition(
    store: &mut TpccStore,
    local_warehouses: &[WId],
    all_warehouses: u32,
    scale: &TpccScale,
    seed: u64,
) {
    store.local_warehouses = local_warehouses.to_vec();
    store.districts_per_warehouse = scale.districts_per_warehouse;

    // Replicated tables use a seed independent of the local warehouse set
    // so every partition holds the identical copy.
    let mut rrng = SplitMix64::new(seed ^ 0x5EED_0001);
    for i_id in 1..=scale.items {
        let data = if rrng.next_f64() < 0.10 {
            // 10% of items carry "ORIGINAL" (clause 4.3.3.1).
            format!(
                "{}ORIGINAL{}",
                rand_str(&mut rrng, 6, 12),
                rand_str(&mut rrng, 6, 12)
            )
        } else {
            rand_str(&mut rrng, 26, 50)
        };
        store.item.insert(
            i_id,
            Item {
                i_id,
                im_id: rrng.range_inclusive(1, 10_000) as u32,
                name: rand_str(&mut rrng, 14, 24),
                price_cents: rrng.range_inclusive(100, 10_000) as i64,
                data,
            },
        );
    }
    for w_id in 1..=all_warehouses {
        for i_id in 1..=scale.items {
            let dists = std::array::from_fn(|_| dist_info(&mut rrng));
            let data = if rrng.next_f64() < 0.10 {
                format!(
                    "{}ORIGINAL{}",
                    rand_str(&mut rrng, 6, 12),
                    rand_str(&mut rrng, 6, 12)
                )
            } else {
                rand_str(&mut rrng, 26, 50)
            };
            store
                .stock_info
                .insert((w_id, i_id), StockInfo { dists, data });
        }
    }

    // Partitioned tables, seeded per warehouse so the same warehouse loads
    // identically regardless of which partition owns it.
    for &w_id in local_warehouses {
        let mut rng = SplitMix64::new(seed ^ 0x10AD ^ ((w_id as u64) << 16));
        load_warehouse(store, w_id, scale, &mut rng);
    }
}

fn load_warehouse(store: &mut TpccStore, w_id: WId, scale: &TpccScale, rng: &mut SplitMix64) {
    store.warehouse.insert(
        w_id,
        Warehouse {
            w_id,
            name: rand_str(rng, 6, 10),
            street_1: rand_str(rng, 10, 20),
            street_2: rand_str(rng, 10, 20),
            city: rand_str(rng, 10, 20),
            state: rand_str(rng, 2, 2),
            zip: zip(rng),
            tax_bp: rng.range_inclusive(0, 2000) as u32,
            // Consistency condition 1: W_YTD = Σ D_YTD at load.
            ytd_cents: 3_000_000 * scale.districts_per_warehouse as i64,
        },
    );

    for i_id in 1..=scale.items {
        store.stock.insert(
            (w_id, i_id),
            StockMut {
                quantity: rng.range_inclusive(10, 100) as i32,
                ytd: 0,
                order_cnt: 0,
                remote_cnt: 0,
            },
        );
    }

    for d in 1..=scale.districts_per_warehouse {
        let d_id = d as DId;
        store.district.insert(
            (w_id, d_id),
            District {
                w_id,
                d_id,
                name: rand_str(rng, 6, 10),
                street_1: rand_str(rng, 10, 20),
                street_2: rand_str(rng, 10, 20),
                city: rand_str(rng, 10, 20),
                state: rand_str(rng, 2, 2),
                zip: zip(rng),
                tax_bp: rng.range_inclusive(0, 2000) as u32,
                ytd_cents: 3_000_000,
                next_o_id: scale.initial_orders_per_district + 1,
            },
        );

        for c_id in 1..=scale.customers_per_district {
            let name_num = load_name_number(rng, c_id, scale);
            let last = last_name(name_num);
            let credit = if rng.next_f64() < 0.10 {
                Credit::Bad
            } else {
                Credit::Good
            };
            store.customer.insert(
                (w_id, d_id, c_id),
                Customer {
                    w_id,
                    d_id,
                    c_id,
                    first: rand_str(rng, 8, 16),
                    middle: "OE",
                    last: last.clone(),
                    street_1: rand_str(rng, 10, 20),
                    street_2: rand_str(rng, 10, 20),
                    city: rand_str(rng, 10, 20),
                    state: rand_str(rng, 2, 2),
                    zip: zip(rng),
                    phone: format!("{:016}", rng.next_u64() % 10_000_000_000_000_000),
                    since: LOAD_DATE,
                    credit,
                    credit_lim_cents: 5_000_000,
                    discount_bp: rng.range_inclusive(0, 5000) as u32,
                    balance_cents: -1000,
                    ytd_payment_cents: 1000,
                    payment_cnt: 1,
                    delivery_cnt: 0,
                    data: rand_str(rng, 30, 50),
                },
            );
            store
                .customer_by_name
                .entry((w_id, d_id))
                .or_default()
                .entry(last)
                .or_default()
                .push(c_id);

            store.history.push(History {
                c_id,
                c_d_id: d_id,
                c_w_id: w_id,
                d_id,
                w_id,
                date: LOAD_DATE,
                amount_cents: 1000,
                data: rand_str(rng, 12, 24),
            });
        }

        // Sort the by-name index by customer first name (clause 2.5.2.2).
        let customers = &store.customer;
        if let Some(by_name) = store.customer_by_name.get_mut(&(w_id, d_id)) {
            for ids in by_name.values_mut() {
                ids.sort_by(|a, b| {
                    customers[&(w_id, d_id, *a)]
                        .first
                        .cmp(&customers[&(w_id, d_id, *b)].first)
                });
            }
        }

        // Initial orders: a random permutation of customers, one order each.
        store.orders.insert(
            (w_id, d_id),
            DistrictOrders::new(scale.customers_per_district),
        );
        let n_orders = scale.initial_orders_per_district;
        let mut cust_perm: Vec<CId> = (1..=scale.customers_per_district).collect();
        // Fisher-Yates with our deterministic RNG.
        for i in (1..cust_perm.len()).rev() {
            let j = rng.range_inclusive(0, i as u64) as usize;
            cust_perm.swap(i, j);
        }
        let delivered_cutoff = n_orders - n_orders * 30 / 100;
        for o_id in 1..=n_orders {
            let c_id = cust_perm[(o_id - 1) as usize % cust_perm.len()];
            let ol_cnt = rng.range_inclusive(5, 15) as u8;
            let delivered = o_id <= delivered_cutoff;
            store.insert_order(
                Order {
                    w_id,
                    d_id,
                    o_id,
                    c_id,
                    entry_d: LOAD_DATE,
                    carrier_id: if delivered {
                        Some(rng.range_inclusive(1, 10) as u8)
                    } else {
                        None
                    },
                    ol_cnt,
                    all_local: true,
                },
                None,
            );
            if !delivered {
                store.insert_new_order((w_id, d_id, o_id), None);
            }
            for ol_number in 1..=ol_cnt {
                let i_id = rng.range_inclusive(1, scale.items as u64) as IId;
                store.insert_order_line(
                    OrderLine {
                        w_id,
                        d_id,
                        o_id,
                        ol_number,
                        i_id,
                        supply_w_id: w_id,
                        delivery_d: delivered.then_some(LOAD_DATE),
                        quantity: 5,
                        amount_cents: if delivered {
                            0
                        } else {
                            rng.range_inclusive(1, 999_999) as i64
                        },
                        dist_info: dist_info(rng),
                    },
                    None,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcc::consistency;

    fn tiny_store() -> TpccStore {
        let mut s = TpccStore::new();
        load_partition(&mut s, &[1, 2], 4, &TpccScale::tiny(), 7);
        s
    }

    #[test]
    fn loads_expected_cardinalities() {
        let scale = TpccScale::tiny();
        let s = tiny_store();
        assert_eq!(s.warehouse.len(), 2);
        assert_eq!(s.district.len(), 2 * scale.districts_per_warehouse as usize);
        assert_eq!(
            s.customer.len(),
            2 * scale.districts_per_warehouse as usize * scale.customers_per_district as usize
        );
        assert_eq!(s.item.len(), scale.items as usize);
        // Partitioned stock: local warehouses only. Replicated info: all 4.
        assert_eq!(s.stock.len(), 2 * scale.items as usize);
        assert_eq!(s.stock_info.len(), 4 * scale.items as usize);
    }

    #[test]
    fn new_order_holds_undelivered_tail() {
        let scale = TpccScale::tiny();
        let s = tiny_store();
        let n = scale.initial_orders_per_district;
        let undelivered = n * 30 / 100;
        let count = s.orders[&(1, 1)].new_orders().count() as u32;
        assert_eq!(count, undelivered);
        // The oldest undelivered order is the first after the cutoff.
        assert_eq!(s.oldest_new_order(1, 1), Some(n - undelivered + 1));
    }

    #[test]
    fn replicated_tables_identical_across_partitions() {
        let scale = TpccScale::tiny();
        let mut a = TpccStore::new();
        let mut b = TpccStore::new();
        load_partition(&mut a, &[1, 2], 4, &scale, 99);
        load_partition(&mut b, &[3, 4], 4, &scale, 99);
        assert_eq!(a.item, b.item);
        assert_eq!(a.stock_info, b.stock_info);
    }

    #[test]
    fn same_warehouse_loads_identically_regardless_of_grouping() {
        let scale = TpccScale::tiny();
        let mut a = TpccStore::new();
        let mut b = TpccStore::new();
        load_partition(&mut a, &[2], 4, &scale, 99);
        load_partition(&mut b, &[1, 2], 4, &scale, 99);
        assert_eq!(a.warehouse[&2], b.warehouse[&2]);
        assert_eq!(a.district[&(2, 1)], b.district[&(2, 1)]);
        assert_eq!(a.customer[&(2, 1, 1)], b.customer[&(2, 1, 1)]);
    }

    #[test]
    fn by_name_index_sorted_by_first_name() {
        let s = tiny_store();
        for ((w, d), by_name) in s.customer_by_name.iter() {
            for ids in by_name.values() {
                let firsts: Vec<&String> = ids
                    .iter()
                    .map(|c| &s.customer[&(*w, *d, *c)].first)
                    .collect();
                let mut sorted = firsts.clone();
                sorted.sort();
                assert_eq!(firsts, sorted);
            }
        }
    }

    #[test]
    fn every_name_number_in_range_resolves() {
        let scale = TpccScale::tiny();
        let s = tiny_store();
        for num in 0..scale.max_name_number {
            let last = last_name(num);
            assert!(
                !s.customers_by_last_name(1, 1, &last).is_empty(),
                "no customer named {last}"
            );
        }
    }

    #[test]
    fn fresh_load_passes_consistency() {
        let s = tiny_store();
        consistency::check(&s).expect("fresh load must be consistent");
    }

    #[test]
    fn deterministic_given_seed() {
        let scale = TpccScale::tiny();
        let mut a = TpccStore::new();
        let mut b = TpccStore::new();
        load_partition(&mut a, &[1], 2, &scale, 5);
        load_partition(&mut b, &[1], 2, &scale, 5);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = TpccStore::new();
        load_partition(&mut c, &[1], 2, &scale, 6);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
