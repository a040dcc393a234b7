//! Regenerate Table 2: TP/FN/FP/TN, mitigation counts, recall and precision for every
//! approach, plus the three cost-conditioned RL rows. Scale via `UERL_SCALE`.

fn main() {
    uerl_bench::print_artefact(env!("CARGO_BIN_NAME"));
}
