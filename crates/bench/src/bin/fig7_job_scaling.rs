//! Regenerate Figure 7: total cost (7a) and mitigation cost (7b) as a function of the
//! job-size scaling factor. Scale via `UERL_SCALE`.

fn main() {
    uerl_bench::print_artefact(env!("CARGO_BIN_NAME"));
}
