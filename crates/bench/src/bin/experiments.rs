//! Prints the full E1–E16 paper-vs-measured table.
//!
//! With `KPA_TRACE=1` (or `--trace`) the run ends with the `kpa-trace`
//! counter/histogram report — system builds, cache hit rates, dense
//! kernel traffic, and pool scheduling across all experiments.

fn main() {
    if std::env::args().any(|a| a == "--trace") {
        kpa_trace::set_enabled(true);
    }
    if kpa_trace::enabled() {
        kpa_trace::registry().reset();
    }
    let rows = kpa_bench::all_experiments();
    let mut current = "";
    let mut mismatches = 0usize;
    println!("Halpern & Tuttle, \"Knowledge, Probability, and Adversaries\" (JACM 1993)");
    println!("experiment reproduction: paper value vs measured value\n");
    for row in &rows {
        if row.experiment != current {
            current = row.experiment;
            println!();
        }
        println!("{row}");
        if !row.matches {
            mismatches += 1;
        }
    }
    println!(
        "\n{} quantities reproduced, {} mismatch(es)",
        rows.len(),
        mismatches
    );
    if kpa_trace::enabled() {
        print!("\n{}", kpa_trace::registry().snapshot().render_table());
    }
    if mismatches > 0 {
        std::process::exit(1);
    }
}
