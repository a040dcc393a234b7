//! Regenerate Figure 4: per-split total cost from the time-series nested
//! cross-validation at the 2 node-minute mitigation cost. Scale via `UERL_SCALE`.

fn main() {
    uerl_bench::print_artefact(env!("CARGO_BIN_NAME"));
}
