//! Regenerate Figure 5: total cost per DRAM manufacturer (MN/All, MN/A, MN/B, MN/C,
//! MN/ABC). Scale via `UERL_SCALE`.

fn main() {
    uerl_bench::print_artefact(env!("CARGO_BIN_NAME"));
}
