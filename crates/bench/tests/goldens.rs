//! The golden table is current: it holds one row per point of
//! `hcc_bench::goldens`, in order, and every point, run again, passes the
//! table's checks and reproduces its line of `crates/bench/goldens.tsv`.

use hcc_bench::goldens;

#[test]
fn every_golden_point_reproduces_its_row() {
    let file = std::fs::read_to_string(goldens::PATH).expect("the golden table");
    let keys: Vec<&str> = file
        .lines()
        .skip(1)
        .filter_map(|l| l.split('\t').next())
        .collect();
    assert_eq!(
        keys,
        goldens::POINTS,
        "the table's rows are not the points' rows: run \
         `cargo run --release -p hcc-bench --bin golden_capture`"
    );
    goldens::assert_reproduced(&goldens::POINTS);
}
