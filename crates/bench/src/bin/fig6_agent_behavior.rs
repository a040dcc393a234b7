//! Regenerate Figure 6: the RL agent's mitigation-fraction map over potential UE cost
//! (log x-axis) and UE likelihood (RF-probability y-axis). Scale via `UERL_SCALE`.

fn main() {
    uerl_bench::print_artefact(env!("CARGO_BIN_NAME"));
}
