//! Initial TPC-C population (clause 4.3), deterministic per seed, loaded on
//! every core.
//!
//! [`load_replicated`] builds the replicated tables (ITEM and the read-only
//! half of STOCK for *all* warehouses) from the seed alone, so every
//! partition would hold an identical copy, like the paper's system where
//! those tables are copied to every node; [`shared_replicated`] keeps one
//! copy per process. [`load_partition`] fills a [`TpccStore`] with the
//! partitioned data of the warehouses assigned to one partition, and loads
//! the replicated tables beside them when the process holds no copy yet.
//!
//! # In parallel, and byte for byte
//!
//! Generating rows is the whole cost of a load: one SplitMix64 draw per
//! character, bound by the generator's multiplies, so only more cores make
//! a load faster (as Wu et al. rebuild main-memory state with one thread
//! per partition). A load is cut into jobs that run on at most
//! `available_parallelism()` scoped threads, and each job's rows are a pure
//! function of the seed, so the store holds the same bytes whatever the
//! thread count and whichever job finishes first:
//!
//! * Each warehouse draws from its own stream (`seed ^ 0x10AD ^ w << 16`)
//!   and reads nothing from the replicated tables (an order line draws its
//!   own `dist_info`). The TPC-C database is partitioned by warehouse, so
//!   this independence holds by construction. A warehouse is one job, and
//!   its rows are appended in slot order.
//! * The replicated tables are one stream, ITEM's rows and then
//!   STOCK-info's, cut at row boundaries. SplitMix64's state after `n`
//!   draws is `seed + n·γ`, so [`SplitMix64::jump`] skips draws in O(1). A
//!   counting pass runs the same row functions over `Skip`, which draws
//!   what decides a row's shape (lengths, branches) and jumps over the
//!   characters, and notes the stream's state at the start of each chunk.
//!   Each chunk is then a job that starts from that state.

use super::scale::TpccScale;
use super::schema::*;
use super::store::{DistrictOrders, ReplicatedTables, TpccStore};
use hcc_common::rng::SplitMix64;
use hcc_common::FxHashMap;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// Epoch used for all load-time dates.
const LOAD_DATE: u64 = 1_000_000;

/// Where a row function's draws come from: the stream itself (a
/// [`SplitMix64`], which writes every character), or [`Skip`].
trait Draws {
    fn rng(&mut self) -> &mut SplitMix64;
    /// Draw a length in `lo..=hi` and that many alphanumerics, written into
    /// `buf`; returns how many bytes were written.
    fn alnum(&mut self, buf: &mut [u8], lo: usize, hi: usize) -> usize;
}

impl Draws for SplitMix64 {
    fn rng(&mut self) -> &mut SplitMix64 {
        self
    }

    fn alnum(&mut self, buf: &mut [u8], lo: usize, hi: usize) -> usize {
        self.alnum_into(buf, lo, hi)
    }
}

/// The counting pass's draws: the same stream, but a string's characters
/// are jumped over, not drawn, and nothing is written.
struct Skip(SplitMix64);

impl Draws for Skip {
    fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.0
    }

    fn alnum(&mut self, _: &mut [u8], lo: usize, hi: usize) -> usize {
        // What `alnum_into` draws: the length, then one per character.
        let len = self.0.range_inclusive(lo as u64, hi as u64);
        self.0.jump(len);
        0
    }
}

fn rand_str(r: &mut impl Draws, lo: usize, hi: usize) -> String {
    let mut buf = [0u8; 64];
    let n = r.alnum(&mut buf, lo, hi);
    String::from_utf8_lossy(&buf[..n]).into_owned()
}

/// A `CHAR(24)` column: the draws of `rand_str(r, 24, 24)`, kept inline.
fn dist_info(r: &mut impl Draws) -> DistInfo {
    let mut buf = DistInfo::default();
    r.alnum(&mut buf, 24, 24);
    buf
}

/// `I_DATA` / `S_DATA`: 10% carry "ORIGINAL" (clause 4.3.3.1).
fn data_column(r: &mut impl Draws) -> String {
    if r.rng().next_f64() < 0.10 {
        format!("{}ORIGINAL{}", rand_str(r, 6, 12), rand_str(r, 6, 12))
    } else {
        rand_str(r, 26, 50)
    }
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

/// The replicated stream's first state: it is seeded independently of any
/// partition's warehouses.
fn replicated_stream(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ 0x5EED_0001)
}

fn item_row(r: &mut impl Draws, i_id: IId) -> Item {
    let data = data_column(r);
    Item {
        i_id,
        im_id: r.rng().range_inclusive(1, 10_000) as u32,
        name: rand_str(r, 14, 24),
        price_cents: r.rng().range_inclusive(100, 10_000) as i64,
        data,
    }
}

fn stock_info_row(r: &mut impl Draws) -> StockInfo {
    StockInfo {
        dists: std::array::from_fn(|_| dist_info(r)),
        data: data_column(r),
    }
}

/// One unit of a load. Each starts from a stream state of its own, so
/// jobs run in any order, on any thread.
enum Job {
    /// ITEM, from the head of the replicated stream.
    Items(SplitMix64),
    /// These STOCK-info rows, from the replicated stream's state at the
    /// first of them.
    StockInfo(Range<usize>, SplitMix64),
    /// A local warehouse's partitioned tables, from its own stream.
    Warehouse(WId),
}

/// What a [`Job`] produced.
enum Rows {
    Items(Vec<Item>),
    StockInfo(Vec<StockInfo>),
    /// A store of the one warehouse.
    Warehouse(Box<TpccStore>),
}

impl Job {
    fn run(&self, scale: &TpccScale, seed: u64) -> Rows {
        match self {
            Job::Items(head) => {
                let mut rng = head.clone();
                Rows::Items((1..=scale.items).map(|i| item_row(&mut rng, i)).collect())
            }
            Job::StockInfo(rows, start) => {
                let mut rng = start.clone();
                Rows::StockInfo(rows.clone().map(|_| stock_info_row(&mut rng)).collect())
            }
            &Job::Warehouse(w_id) => {
                let mut store = TpccStore::empty(&[w_id], scale, Arc::default());
                let mut rng = SplitMix64::new(seed ^ 0x10AD ^ ((w_id as u64) << 16));
                load_warehouse(&mut store, w_id, scale, &mut rng);
                Rows::Warehouse(Box::new(store))
            }
        }
    }
}

/// The replicated stream as jobs, in stream order: ITEM, then STOCK-info
/// (the bulk of the stream) in `chunks` runs of rows. The counting pass
/// walks the stream over [`Skip`] to find the state at the start of each
/// run.
fn replicated_jobs(all_warehouses: u32, scale: &TpccScale, seed: u64, chunks: usize) -> Vec<Job> {
    let mut skip = Skip(replicated_stream(seed));
    let mut jobs = vec![Job::Items(skip.0.clone())];
    for i_id in 1..=scale.items {
        item_row(&mut skip, i_id);
    }
    let rows = all_warehouses as usize * scale.items as usize;
    let mut start = 0;
    for k in 1..=chunks {
        let end = rows * k / chunks;
        jobs.push(Job::StockInfo(start..end, skip.0.clone()));
        if k < chunks {
            for _ in start..end {
                stock_info_row(&mut skip);
            }
        }
        start = end;
    }
    jobs
}

/// Run every job on at most `threads` threads, the caller's among them:
/// each thread takes the next job nobody has taken. Outputs come back in
/// job order, whichever thread ran them.
fn run_jobs<J: Sync, T: Send>(threads: usize, jobs: &[J], run: impl Fn(&J) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else {
                return done;
            };
            done.push((i, run(job)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads.min(jobs.len()))
            .map(|_| s.spawn(work))
            .collect();
        let mut done = work();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// As many threads as the machine offers this process.
fn machine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Load `local_warehouses`' partitioned tables (a warehouse's slot is its
/// position in the list) on at most `threads` threads, with `replicated`
/// as the store's replicated tables, or, if `None`, a fresh copy loaded
/// beside them in `threads` chunks.
fn load_on(
    threads: usize,
    local_warehouses: &[WId],
    all_warehouses: u32,
    scale: &TpccScale,
    seed: u64,
    replicated: Option<Arc<ReplicatedTables>>,
) -> TpccStore {
    let mut jobs = match replicated {
        Some(_) => Vec::new(),
        None => replicated_jobs(all_warehouses, scale, seed, threads),
    };
    jobs.extend(local_warehouses.iter().map(|&w| Job::Warehouse(w)));
    let mut store = TpccStore::empty(local_warehouses, scale, Arc::default());
    let mut tables = ReplicatedTables::default();
    for rows in run_jobs(threads, &jobs, |job| job.run(scale, seed)) {
        match rows {
            Rows::Items(item) => tables.item = item,
            Rows::StockInfo(rows) if tables.stock_info.is_empty() => tables.stock_info = rows,
            Rows::StockInfo(rows) => tables.stock_info.extend(rows),
            Rows::Warehouse(w) => {
                store.warehouse.extend(w.warehouse);
                store.stock.extend(w.stock);
                store.district.extend(w.district);
                store.customer.extend(w.customer);
                store.customer_by_name.extend(w.customer_by_name);
                store.history.extend(w.history);
                store.orders.extend(w.orders);
            }
        }
    }
    store.replicated = replicated.unwrap_or_else(|| Arc::new(tables));
    store
}

/// ITEM, and STOCK's read-only half for warehouses `1..=all_warehouses`: a
/// private copy.
pub fn load_replicated(all_warehouses: u32, scale: &TpccScale, seed: u64) -> ReplicatedTables {
    let store = load_on(machine_threads(), &[], all_warehouses, scale, seed, None);
    Arc::into_inner(store.replicated).expect("a fresh copy has one holder")
}

/// The replicated tables of `(seed, all_warehouses, scale.items)`, loaded
/// at most once while any engine holds them: every partition and backup
/// of a run, and every run overlapping it, reads one copy. They are a
/// function of those three values and nothing writes them, so sharing
/// moves set-up time and memory, never a result. The registry holds no
/// copy alive; the last engine to drop one frees it.
pub fn shared_replicated(
    all_warehouses: u32,
    scale: &TpccScale,
    seed: u64,
) -> Arc<ReplicatedTables> {
    load_partition(&[], all_warehouses, scale, seed).replicated
}

/// Load the partitioned tables of `local_warehouses` (a warehouse's slot is
/// its position in the list) out of `all_warehouses` in total, with the
/// process's shared copy of the replicated tables ([`shared_replicated`]),
/// loading that copy beside them if there is none.
pub fn load_partition(
    local_warehouses: &[WId],
    all_warehouses: u32,
    scale: &TpccScale,
    seed: u64,
) -> TpccStore {
    type Key = (u64, u32, u32);
    static LIVE: Mutex<Vec<(Key, Weak<ReplicatedTables>)>> = Mutex::new(Vec::new());
    let key = (seed, all_warehouses, scale.items);
    let threads = machine_threads();
    // Every update leaves the list valid, so a panic elsewhere while it was
    // held leaves nothing to repair.
    let mut live = LIVE.lock().unwrap_or_else(PoisonError::into_inner);
    live.retain(|(_, tables)| tables.strong_count() > 0);
    let held = live.iter().filter(|(k, _)| *k == key);
    if let Some(tables) = held.filter_map(|(_, tables)| tables.upgrade()).next() {
        drop(live);
        return load_on(
            threads,
            local_warehouses,
            all_warehouses,
            scale,
            seed,
            Some(tables),
        );
    }
    // Still holding the registry: a concurrent load of the same key waits
    // for this copy rather than load another.
    let store = load_on(threads, local_warehouses, all_warehouses, scale, seed, None);
    live.push((key, Arc::downgrade(&store.replicated)));
    store
}

/// Push warehouse `w_id`'s rows, which take the store's next slot.
fn load_warehouse(store: &mut TpccStore, w_id: WId, scale: &TpccScale, rng: &mut SplitMix64) {
    store.warehouse.push(Warehouse {
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
    });

    store.stock.extend((1..=scale.items).map(|_| StockMut {
        quantity: rng.range_inclusive(10, 100) as i32,
        ytd: 0,
        order_cnt: 0,
        remote_cnt: 0,
    }));

    for d_id in 1..=scale.districts_per_warehouse {
        store.district.push(District {
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
        });

        let first_customer = store.customer.len();
        let mut by_name: FxHashMap<String, Vec<CId>> = FxHashMap::default();
        for c_id in 1..=scale.customers_per_district {
            let name_num = load_name_number(rng, c_id, scale);
            let last = last_name(name_num);
            let credit = if rng.next_f64() < 0.10 {
                Credit::Bad
            } else {
                Credit::Good
            };
            store.customer.push(Customer {
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
            });
            by_name.entry(last).or_default().push(c_id);

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
        let first = |c: &CId| &store.customer[first_customer + *c as usize - 1].first;
        for ids in by_name.values_mut() {
            ids.sort_by(|a, b| first(a).cmp(first(b)));
        }
        store.customer_by_name.push(by_name);

        // Initial orders: a random permutation of customers, one order each.
        store
            .orders
            .push(DistrictOrders::new(scale.customers_per_district));
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
        load_partition(&[1, 2], 4, &TpccScale::tiny(), 7)
    }

    #[test]
    fn loads_expected_cardinalities() {
        let scale = TpccScale::tiny();
        let s = tiny_store();
        let districts = 2 * scale.districts_per_warehouse as usize;
        assert_eq!(s.warehouse.len(), 2);
        assert_eq!(s.district.len(), districts);
        assert_eq!(s.orders.len(), districts);
        assert_eq!(s.customer_by_name.len(), districts);
        assert_eq!(
            s.customer.len(),
            districts * scale.customers_per_district as usize
        );
        assert_eq!(s.replicated.item.len(), scale.items as usize);
        // Partitioned stock: local warehouses only. Replicated info: all 4.
        assert_eq!(s.stock.len(), 2 * scale.items as usize);
        assert_eq!(s.replicated.stock_info.len(), 4 * scale.items as usize);
    }

    #[test]
    fn new_order_holds_undelivered_tail() {
        let scale = TpccScale::tiny();
        let s = tiny_store();
        let n = scale.initial_orders_per_district;
        let undelivered = n * 30 / 100;
        let count = s.district_orders(1, 1).unwrap().new_orders().count() as u32;
        assert_eq!(count, undelivered);
        // The oldest undelivered order is the first after the cutoff.
        assert_eq!(s.oldest_new_order(1, 1), Some(n - undelivered + 1));
    }

    #[test]
    fn replicated_tables_identical_across_partitions() {
        let scale = TpccScale::tiny();
        let a = load_partition(&[1, 2], 4, &scale, 99);
        let b = load_partition(&[3, 4], 4, &scale, 99);
        assert_eq!(a.replicated, b.replicated);
        // Loaded once: both partitions read the same copy.
        assert!(Arc::ptr_eq(&a.replicated, &b.replicated));
        assert_eq!(*a.replicated, load_replicated(4, &scale, 99));
    }

    /// One copy per key while any holder lives; another key is another
    /// copy; the registry keeps none alive. (A seed no other test loads.)
    #[test]
    fn shared_replicated_tables_live_as_long_as_their_holders() {
        let scale = TpccScale::tiny();
        let a = shared_replicated(3, &scale, 0xF1EE);
        assert!(Arc::ptr_eq(&a, &shared_replicated(3, &scale, 0xF1EE)));
        assert!(!Arc::ptr_eq(&a, &shared_replicated(3, &scale, 0xF1EF)));
        assert!(!Arc::ptr_eq(&a, &shared_replicated(2, &scale, 0xF1EE)));
        let held = Arc::downgrade(&a);
        drop(a);
        assert!(held.upgrade().is_none(), "the registry freed nothing");
    }

    #[test]
    fn same_warehouse_loads_identically_regardless_of_grouping() {
        let scale = TpccScale::tiny();
        let a = load_partition(&[2], 4, &scale, 99);
        let b = load_partition(&[1, 2], 4, &scale, 99);
        assert_eq!(a.warehouse(2).unwrap(), b.warehouse(2).unwrap());
        assert_eq!(a.district(2, 1).unwrap(), b.district(2, 1).unwrap());
        assert_eq!(a.customer(2, 1, 1).unwrap(), b.customer(2, 1, 1).unwrap());
    }

    #[test]
    fn by_name_index_sorted_by_first_name() {
        let s = tiny_store();
        for (d, by_name) in s.district.iter().zip(&s.customer_by_name) {
            for ids in by_name.values() {
                let firsts: Vec<&String> = ids
                    .iter()
                    .map(|c| &s.customer(d.w_id, d.d_id, *c).unwrap().first)
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

    /// FNV-1a over everything written to it.
    struct Fnv(u64);

    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }

    /// A digest of every loaded column (the `Debug` text of every table),
    /// as (partitioned tables, replicated tables). Unlike `fingerprint()`
    /// it covers every string, the by-name index and ITEM / STOCK-info.
    fn content_digest(s: &TpccStore) -> (u64, u64) {
        use std::fmt::Write;
        let digest = |tables: &[&dyn std::fmt::Debug]| {
            let mut h = Fnv(0xcbf2_9ce4_8422_2325);
            for t in tables {
                write!(h, "{t:?}|").expect("hashing cannot fail");
            }
            h.0
        };
        // The index's map order is the hasher's: sort it.
        let by_name: Vec<std::collections::BTreeMap<_, _>> = s
            .customer_by_name
            .iter()
            .map(|m| m.iter().collect())
            .collect();
        let partitioned = digest(&[
            &s.local_warehouses,
            &s.warehouse,
            &s.district,
            &s.customer,
            &by_name,
            &s.history,
            &s.orders,
            &s.stock,
        ]);
        let r = &s.replicated;
        (partitioned, digest(&[&r.item, &r.stock_info]))
    }

    /// What the loader produces, byte for byte: four warehouses on two
    /// partitions at seed 7, at the tiny scale and at the benchmark's
    /// (`TpccConfig::new(4, 2)`: the default scale). Captured from the
    /// serial loader; a faster loader must produce the same bytes.
    #[test]
    fn loaded_content_is_pinned() {
        let scales = [
            (
                TpccScale::tiny(),
                [
                    (0x304b_2a9e_2780_66c8, 0xadde_90fd_b1fa_f301),
                    (0x9df3_f5a6_2e6e_3999, 0xadde_90fd_b1fa_f301),
                ],
            ),
            (
                TpccScale::default_scaled(),
                [
                    (0xc4ae_8a78_0cff_9b9d, 0xf1a8_dd15_fcc0_6113),
                    (0x5834_97cc_17a9_8ec7, 0xf1a8_dd15_fcc0_6113),
                ],
            ),
        ];
        for (scale, want) in scales {
            let got =
                [[1, 2], [3, 4]].map(|local| content_digest(&load_partition(&local, 4, &scale, 7)));
            assert_eq!(got, want, "{got:#018x?}");
        }
    }

    /// Table by table, so that a failure names the table.
    fn assert_same_load(a: &TpccStore, b: &TpccStore, what: &str) {
        assert_eq!(a.local_warehouses, b.local_warehouses, "{what}");
        assert_eq!(a.warehouse, b.warehouse, "{what}: WAREHOUSE");
        assert_eq!(a.district, b.district, "{what}: DISTRICT");
        assert_eq!(a.customer, b.customer, "{what}: CUSTOMER");
        assert_eq!(a.customer_by_name, b.customer_by_name, "{what}: by name");
        assert_eq!(a.history, b.history, "{what}: HISTORY");
        assert_eq!(a.orders, b.orders, "{what}: orders");
        assert_eq!(a.stock, b.stock, "{what}: STOCK");
        assert_eq!(a.replicated.item, b.replicated.item, "{what}: ITEM");
        let (sa, sb) = (&a.replicated.stock_info, &b.replicated.stock_info);
        assert_eq!(sa, sb, "{what}: STOCK-info");
    }

    /// However many threads a load runs on, and so however many chunks
    /// the replicated stream is cut into, it loads what one thread loads.
    /// Three warehouses: 300 STOCK-info rows, which no count from 2 to 4
    /// cuts into equal chunks.
    #[test]
    fn any_thread_count_loads_what_one_thread_loads() {
        let scale = TpccScale::tiny();
        for local in [&[1, 2, 3][..], &[2], &[]] {
            let serial = load_on(1, local, 3, &scale, 7, None);
            for threads in 2..=4 {
                let parallel = load_on(threads, local, 3, &scale, 7, None);
                let what = format!("{threads} threads, warehouses {local:?}");
                assert_same_load(&parallel, &serial, &what);
            }
        }
    }

    /// The counting pass jumps over characters instead of drawing them,
    /// and still lands exactly on the serial stream's state at the first
    /// row of every chunk.
    #[test]
    fn counting_pass_lands_on_the_serial_stream() {
        let scale = TpccScale::tiny();
        let rows = 3 * scale.items as usize;
        for chunks in 1..=5 {
            let jobs = replicated_jobs(3, &scale, 7, chunks);
            assert_eq!(jobs.len(), chunks + 1);
            let mut serial = replicated_stream(7);
            let Job::Items(head) = &jobs[0] else {
                panic!("ITEM heads the stream")
            };
            assert_eq!(*head, serial, "{chunks} chunks: ITEM");
            for i_id in 1..=scale.items {
                item_row(&mut serial, i_id);
            }
            let mut next_row = 0;
            for job in &jobs[1..] {
                let Job::StockInfo(run, start) = job else {
                    panic!("STOCK-info follows ITEM")
                };
                assert_eq!(run.start, next_row, "{chunks} chunks: runs are contiguous");
                assert_eq!(
                    *start, serial,
                    "{chunks} chunks: STOCK-info row {}",
                    run.start
                );
                for _ in run.clone() {
                    stock_info_row(&mut serial);
                }
                next_row = run.end;
            }
            assert_eq!(next_row, rows, "{chunks} chunks cover STOCK-info");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let scale = TpccScale::tiny();
        let a = load_partition(&[1], 2, &scale, 5);
        let b = load_partition(&[1], 2, &scale, 5);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = load_partition(&[1], 2, &scale, 6);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
