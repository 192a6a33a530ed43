//! TPC-C consistency conditions (clause 3.3.2), used by integration tests
//! to verify that concurrent histories leave the database in a state some
//! serial history could have produced.
//!
//! Implemented conditions (those meaningful for our workload surface):
//!
//! 1. `W_YTD = Σ D_YTD` for each warehouse.
//! 2. `D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID)` per district.
//! 3. NEW-ORDER rows per district form a contiguous range of order ids.
//! 4. `Σ O_OL_CNT = count(ORDER-LINE)` per district.
//! 5. Every NEW-ORDER row has a matching ORDER row with no carrier, and
//!    every delivered order has a carrier.
//! 6. Order lines exist exactly for `1..=O_OL_CNT` of each order.
//! 7. Not TPC-C's, the store's own: order ids are array indexes. A
//!    district's orders are `1..=n` in place, and each order's first line
//!    index is monotone, so every order's lines are one contiguous run.
//!
//! Each district's order tables are walked once.

use super::schema::OId;
use super::store::{DistrictOrders, TpccStore};

/// A consistency violation, described for test failure messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub condition: &'static str,
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.condition, self.detail)
    }
}

/// Check all supported consistency conditions; `Err` carries every
/// violation found.
pub fn check(store: &TpccStore) -> Result<(), Vec<Violation>> {
    let mut violations = Vec::new();

    // Condition 1: warehouse YTD equals the sum of its districts' YTD.
    for (w_id, w) in &store.warehouse {
        let d_sum: i64 = store
            .district
            .iter()
            .filter(|((dw, _), _)| dw == w_id)
            .map(|(_, d)| d.ytd_cents)
            .sum();
        if w.ytd_cents != d_sum {
            violations.push(Violation {
                condition: "C1:w_ytd",
                detail: format!(
                    "warehouse {w_id}: W_YTD={} but Σ D_YTD={d_sum}",
                    w.ytd_cents
                ),
            });
        }
    }

    let no_orders = DistrictOrders::default();
    for ((w_id, d_id), d) in &store.district {
        let dist = store.orders.get(&(*w_id, *d_id)).unwrap_or(&no_orders);

        // Condition 7: order `o` at index `o - 1`, lines contiguous per order.
        let misplaced = dist
            .orders
            .iter()
            .enumerate()
            .position(|(i, o)| o.o_id as usize != i + 1);
        let monotone = dist.first_line.len() == dist.orders.len()
            && dist.first_line.windows(2).all(|p| p[0] <= p[1])
            && dist
                .first_line
                .last()
                .is_none_or(|&s| s as usize <= dist.lines.len());
        if misplaced.is_some() || !monotone {
            violations.push(Violation {
                condition: "C7:orders_dense",
                detail: format!(
                    "district ({w_id},{d_id}): first misplaced order at index {misplaced:?}, \
                     first-line index monotone over {} orders and {} lines: {monotone}",
                    dist.orders.len(),
                    dist.lines.len()
                ),
            });
        }

        // Condition 2: next_o_id is one past the newest order.
        let max_o = dist.orders.iter().map(|o| o.o_id).max().unwrap_or(0);
        if d.next_o_id != max_o + 1 {
            violations.push(Violation {
                condition: "C2:next_o_id",
                detail: format!(
                    "district ({w_id},{d_id}): next_o_id={} but max(O_ID)={max_o}",
                    d.next_o_id
                ),
            });
        }

        // Condition 3: NEW-ORDER ids contiguous.
        let no_ids = &dist.new_order;
        if let (Some(&first), Some(&last)) = (no_ids.front(), no_ids.back()) {
            if no_ids.len() as u32 != last.wrapping_sub(first).wrapping_add(1) {
                violations.push(Violation {
                    condition: "C3:new_order_contiguous",
                    detail: format!(
                        "district ({w_id},{d_id}): {} NEW-ORDER rows span [{first},{last}]",
                        no_ids.len()
                    ),
                });
            }
        }

        // Condition 4: Σ ol_cnt matches the order-line count.
        let ol_cnt_sum: u64 = dist.orders.iter().map(|o| o.ol_cnt as u64).sum();
        let ol_rows = dist.lines.len() as u64;
        if ol_cnt_sum != ol_rows {
            violations.push(Violation {
                condition: "C4:order_line_count",
                detail: format!(
                    "district ({w_id},{d_id}): Σ O_OL_CNT={ol_cnt_sum} but {ol_rows} ORDER-LINE rows"
                ),
            });
        }

        // Condition 5: NEW-ORDER rows pair with undelivered orders.
        for o in dist.new_orders() {
            match store.order(*w_id, *d_id, o) {
                None => violations.push(Violation {
                    condition: "C5:new_order_has_order",
                    detail: format!("NEW-ORDER ({w_id},{d_id},{o}) has no ORDER row"),
                }),
                Some(ord) if ord.carrier_id.is_some() => violations.push(Violation {
                    condition: "C5:new_order_undelivered",
                    detail: format!("NEW-ORDER ({w_id},{d_id},{o}) exists but order has a carrier"),
                }),
                _ => {}
            }
        }

        // Condition 6: each order's lines are exactly 1..=ol_cnt.
        for ord in &dist.orders {
            let o = ord.o_id;
            let lines: Vec<(OId, u8)> = store
                .order_lines(*w_id, *d_id, o)
                .map(|ol| (ol.o_id, ol.ol_number))
                .collect();
            let expect: Vec<(OId, u8)> = (1..=ord.ol_cnt).map(|n| (o, n)).collect();
            if lines != expect {
                violations.push(Violation {
                    condition: "C6:order_lines_complete",
                    detail: format!(
                        "order ({w_id},{d_id},{o}): ol_cnt={} but (order, line) {:?}",
                        ord.ol_cnt, lines
                    ),
                });
            }
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::super::loader::load_partition;
    use super::super::scale::TpccScale;
    use super::*;

    fn store() -> TpccStore {
        let mut s = TpccStore::new();
        load_partition(&mut s, &[1], 1, &TpccScale::tiny(), 3);
        s
    }

    #[test]
    fn fresh_load_is_consistent() {
        assert!(check(&store()).is_ok());
    }

    #[test]
    fn detects_w_ytd_mismatch() {
        let mut s = store();
        s.update_warehouse(1, None, |w| w.ytd_cents += 1);
        let errs = check(&s).unwrap_err();
        assert!(errs.iter().any(|v| v.condition == "C1:w_ytd"));
    }

    #[test]
    fn detects_next_o_id_mismatch() {
        let mut s = store();
        s.update_district(1, 1, None, |d| d.next_o_id += 5);
        let errs = check(&s).unwrap_err();
        assert!(errs.iter().any(|v| v.condition == "C2:next_o_id"));
    }

    #[test]
    fn detects_dangling_new_order() {
        let mut s = store();
        s.insert_new_order((1, 1, 9999), None);
        let errs = check(&s).unwrap_err();
        assert!(errs.iter().any(|v| v.condition.starts_with("C5")));
    }

    #[test]
    fn detects_missing_order_line() {
        let mut s = store();
        s.orders.get_mut(&(1, 1)).unwrap().lines.remove(0);
        let errs = check(&s).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| v.condition == "C4:order_line_count"
                || v.condition == "C6:order_lines_complete"));
    }

    #[test]
    fn detects_delivered_order_still_in_new_order() {
        let mut s = store();
        let o = s.oldest_new_order(1, 1).unwrap();
        s.update_order((1, 1, o), None, |ord| ord.carrier_id = Some(1));
        let errs = check(&s).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| v.condition == "C5:new_order_undelivered"));
    }

    #[test]
    fn detects_order_ids_that_are_not_indexes() {
        let dense = |s: &TpccStore| {
            check(s)
                .unwrap_err()
                .iter()
                .any(|v| v.condition == "C7:orders_dense")
        };
        let mut s = store();
        s.orders.get_mut(&(1, 1)).unwrap().orders[3].o_id += 1;
        assert!(dense(&s), "an order out of place");
        let mut s = store();
        s.orders.get_mut(&(1, 1)).unwrap().first_line.swap(3, 4);
        assert!(dense(&s), "first_line not monotone");
    }

    #[test]
    fn violation_display() {
        let v = Violation {
            condition: "C1:w_ytd",
            detail: "oops".into(),
        };
        assert_eq!(v.to_string(), "[C1:w_ytd] oops");
    }
}
