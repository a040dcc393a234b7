//! Regenerate Figure 3: total cost (UE + mitigation) for mitigation costs of 2, 5 and 10
//! node-minutes, all eight policies. Scale is selected with `UERL_SCALE`.

fn main() {
    uerl_bench::print_artefact(env!("CARGO_BIN_NAME"));
}
