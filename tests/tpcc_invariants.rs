//! TPC-C end-to-end integrity: after concurrent mixed-workload runs under
//! every scheme, the database must satisfy the TPC-C consistency
//! conditions, match its serial shadow replica, and conserve money across
//! partitions (warehouse YTD grows exactly by the committed payments).

use hcc::prelude::*;
use hcc::storage::tpcc::consistency;
use hcc::workloads::tpcc::{TpccConfig, TpccEngine, TpccWorkload};

fn run_tpcc(
    scheme: Scheme,
    warehouses: u32,
    partitions: u32,
    remote_item_prob: f64,
) -> (RuntimeReport<TpccEngine>, Vec<TpccEngine>, Vec<TpccEngine>) {
    let mut tpcc = TpccConfig::new(warehouses, partitions);
    tpcc.scale = hcc::storage::tpcc::TpccScale::tiny();
    tpcc.remote_item_prob = remote_item_prob;
    let mut system = SystemConfig::new(scheme)
        .with_partitions(partitions)
        .with_clients(12)
        .with_seed(3);
    system.lock_timeout = Nanos::from_millis(1);
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: true })
        .with_window(Nanos::from_millis(20), Nanos::from_millis(150));
    let builder = TpccWorkload::new(tpcc);
    let mut report = run(cfg, TpccWorkload::new(tpcc), move |p| {
        builder.build_engine(p)
    });
    let (engines, shadow) = (
        std::mem::take(&mut report.engines),
        std::mem::take(&mut report.backups),
    );
    assert_eq!(shadow.len(), engines.len(), "shadow");
    (report, engines, shadow)
}

#[test]
fn consistency_conditions_hold_after_mixed_run_under_all_schemes() {
    for scheme in Scheme::ALL {
        let (r, engines, shadow) = run_tpcc(scheme, 4, 2, 0.05);
        assert!(r.committed > 100, "{scheme}: {} committed", r.committed);
        assert!(r.committed_mp > 0, "{scheme}: no multi-partition txns ran");
        for (i, e) in engines.iter().enumerate() {
            consistency::check(&e.store).unwrap_or_else(|v| {
                panic!(
                    "{scheme}: partition {i} inconsistent: {:?}",
                    &v[..v.len().min(3)]
                )
            });
            assert_eq!(e.live_undo_buffers(), 0, "{scheme}: P{i} leaked undo");
        }
        for (i, (e, s)) in engines.iter().zip(shadow.iter()).enumerate() {
            assert_eq!(
                e.store.fingerprint(),
                s.store.fingerprint(),
                "{scheme}: partition {i} diverged from serial shadow"
            );
        }
    }
}

#[test]
fn remote_stock_updates_apply_atomically() {
    // Force every new-order to include remote items; stock YTD across all
    // partitions must equal the sum of committed order-line quantities.
    let (r, engines, _) = run_tpcc(Scheme::Speculative, 2, 2, 0.5);
    assert!(r.committed_mp > 20, "need cross-partition new-orders");

    // Every committed order line's quantity is reflected in exactly one
    // stock row's YTD (conservation of stock movement under 2PC).
    let mut ordered: u64 = 0;
    let mut stocked: u64 = 0;
    for e in &engines {
        for ol in e.store.orders.values().flat_map(|d| d.lines()) {
            ordered += ol.quantity as u64;
        }
        for s in e.store.stock.values() {
            stocked += s.ytd as u64;
        }
    }
    // The loader creates order lines with no matching stock YTD; subtract
    // the initial lines (quantity 5 each).
    let initial: u64 = {
        let w = TpccWorkload::new({
            let mut t = TpccConfig::new(2, 2);
            t.scale = hcc::storage::tpcc::TpccScale::tiny();
            t
        });
        let e0 = w.build_engine(PartitionId(0));
        let e1 = w.build_engine(PartitionId(1));
        [e0, e1]
            .iter()
            .flat_map(|e| e.store.orders.values().flat_map(|d| d.lines()))
            .map(|ol| ol.quantity as u64)
            .sum::<u64>()
    };
    assert_eq!(
        ordered - initial,
        stocked,
        "stock YTD must equal committed ordered quantities (2PC atomicity)"
    );
}

#[test]
fn money_is_conserved_across_partitions() {
    // Warehouse + district YTD grows exactly by committed payment amounts;
    // customer balances change only by committed payments/deliveries. We
    // check the strongest cheap invariant: W_YTD = Σ D_YTD (condition 1)
    // even with 15% of payments updating a *remote* customer via 2PC.
    let (r, engines, _) = run_tpcc(Scheme::Locking, 4, 2, 0.01);
    assert!(r.committed > 100);
    for e in &engines {
        for (w_id, w) in &e.store.warehouse {
            let d_sum: i64 = e
                .store
                .district
                .iter()
                .filter(|((dw, _), _)| dw == w_id)
                .map(|(_, d)| d.ytd_cents)
                .sum();
            assert_eq!(w.ytd_cents, d_sum, "warehouse {w_id} YTD mismatch");
        }
    }
}

#[test]
fn by_warehouse_classification_reproduces_high_mp_fraction() {
    // §5.6: with 1% remote items and by-warehouse classification, ~9.5% of
    // new-orders are multi-partition.
    let mut tpcc = TpccConfig::new(6, 2);
    tpcc.scale = hcc::storage::tpcc::TpccScale::tiny();
    tpcc.mix = hcc::workloads::tpcc::TxnMix::new_order_only();
    tpcc.classify_by_warehouse = true;
    let system = SystemConfig::new(Scheme::Speculative)
        .with_partitions(2)
        .with_clients(12);
    let cfg = RuntimeConfig::new(system, BackendChoice::Sim { shadow: false })
        .with_window(Nanos::from_millis(50), Nanos::from_millis(400));
    let builder = TpccWorkload::new(tpcc);
    let r = run(cfg, TpccWorkload::new(tpcc), move |p| {
        builder.build_engine(p)
    });
    let f = r.mp_fraction();
    assert!(
        (0.06..=0.13).contains(&f),
        "expected ~9.5% multi-partition, measured {:.1}%",
        f * 100.0
    );
}
