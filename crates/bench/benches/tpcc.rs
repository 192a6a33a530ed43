//! TPC-C engine benchmarks: transaction execution costs on the
//! direct-on-memory engine (the paper's "custom written execution engine"),
//! plus a full simulated-system throughput measurement per scheme.

use criterion::{criterion_group, criterion_main, Criterion};
use hcc_bench::{run_tpcc, Effort};
use hcc_common::{ClientId, PartitionId, Scheme, TxnId};
use hcc_core::ExecutionEngine;
use hcc_workloads::tpcc::{CustomerSel, OrderLineReq, TpccConfig, TpccFragment, TpccWorkload};
use std::hint::black_box;

fn engine() -> hcc_workloads::tpcc::TpccEngine {
    TpccWorkload::new(TpccConfig::new(2, 1)).build_engine(PartitionId(0))
}

fn txid(n: u32) -> TxnId {
    TxnId::new(ClientId(0), n)
}

fn bench_transactions(c: &mut Criterion) {
    let mut g = c.benchmark_group("tpcc_engine");

    g.bench_function("new_order_10_lines", |b| {
        let mut e = engine();
        let mut n = 0u32;
        b.iter(|| {
            n = n.wrapping_add(1);
            let frag = TpccFragment::NewOrderHome {
                w_id: 1,
                d_id: ((n % 10) + 1) as u8,
                c_id: (n % 300) + 1,
                lines: (0..10)
                    .map(|i| OrderLineReq {
                        i_id: ((n * 13 + i * 97) % 10_000) + 1,
                        supply_w_id: 1,
                        quantity: 5,
                    })
                    .collect(),
            };
            black_box(e.execute(txid(n), &frag, false));
            e.forget(txid(n));
        });
    });

    g.bench_function("new_order_with_undo_and_rollback", |b| {
        let mut e = engine();
        let mut n = 0u32;
        b.iter(|| {
            n = n.wrapping_add(1);
            let frag = TpccFragment::NewOrderHome {
                w_id: 1,
                d_id: ((n % 10) + 1) as u8,
                c_id: (n % 300) + 1,
                lines: (0..10)
                    .map(|i| OrderLineReq {
                        i_id: ((n * 13 + i * 97) % 10_000) + 1,
                        supply_w_id: 1,
                        quantity: 5,
                    })
                    .collect(),
            };
            black_box(e.execute(txid(n), &frag, true));
            black_box(e.rollback(txid(n)));
        });
    });

    g.bench_function("payment_by_id", |b| {
        let mut e = engine();
        let mut n = 0u32;
        b.iter(|| {
            n = n.wrapping_add(1);
            let frag = TpccFragment::PaymentHome {
                w_id: 1,
                d_id: ((n % 10) + 1) as u8,
                c_w_id: 1,
                c_d_id: ((n % 10) + 1) as u8,
                customer: CustomerSel::ById((n % 300) + 1),
                amount_cents: 1000,
                customer_is_local: true,
            };
            black_box(e.execute(txid(n), &frag, false));
            e.forget(txid(n));
        });
    });

    g.bench_function("payment_by_name", |b| {
        let mut e = engine();
        let mut n = 0u32;
        b.iter(|| {
            n = n.wrapping_add(1);
            let frag = TpccFragment::PaymentHome {
                w_id: 1,
                d_id: ((n % 10) + 1) as u8,
                c_w_id: 1,
                c_d_id: ((n % 10) + 1) as u8,
                customer: CustomerSel::ByName(
                    hcc_storage::tpcc::last_name((n % 300) as u64).into(),
                ),
                amount_cents: 1000,
                customer_is_local: true,
            };
            black_box(e.execute(txid(n), &frag, false));
            e.forget(txid(n));
        });
    });

    g.bench_function("order_status", |b| {
        let mut e = engine();
        let mut n = 0u32;
        b.iter(|| {
            n = n.wrapping_add(1);
            let frag = TpccFragment::OrderStatus {
                w_id: 1,
                d_id: ((n % 10) + 1) as u8,
                customer: CustomerSel::ById((n % 300) + 1),
            };
            black_box(e.execute(txid(n), &frag, false));
        });
    });

    g.bench_function("stock_level", |b| {
        let mut e = engine();
        let mut n = 0u32;
        b.iter(|| {
            n = n.wrapping_add(1);
            let frag = TpccFragment::StockLevel {
                w_id: 1,
                d_id: ((n % 10) + 1) as u8,
                threshold: 15,
                depth: 20,
            };
            black_box(e.execute(txid(n), &frag, false));
        });
    });
    g.finish();

    // Whole-system simulated throughput per scheme (one compact point of
    // Figure 8 each, as a regression guard).
    let mut g = c.benchmark_group("tpcc_system_sim");
    g.sample_size(10);
    for scheme in Scheme::ALL {
        g.bench_function(scheme.name(), |b| {
            b.iter(|| {
                black_box(run_tpcc(scheme, TpccConfig::new(4, 2), 16, Effort::Fast).committed)
            });
        });
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_transactions
);
criterion_main!(benches);
