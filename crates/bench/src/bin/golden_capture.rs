//! Writes the golden table, `crates/bench/goldens.tsv`: one line per point
//! of `hcc_bench::goldens`, each a fixed-seed simulator run. Takes no
//! arguments and prints nothing; `git diff crates/bench/goldens.tsv` shows
//! what a change moved.

use hcc_bench::goldens;

fn main() {
    std::fs::write(goldens::PATH, goldens::table()).expect("write the golden table");
}
