//! Figure 6: RL agent behaviour — the fraction of events at which the agent triggers a
//! mitigation, as a function of the potential UE cost (x-axis, log scale) and the
//! likelihood of a UE (y-axis, proxied by the SC20-RF predicted probability, exactly as
//! in the paper, because the agent itself exposes no probability).

use super::common::{collect_states, holdout, train_models_on_prefix};
use crate::report::format_table;
use crate::scenario::ExperimentContext;
use serde::{Deserialize, Serialize};
use uerl_core::policy::MitigationPolicy;

/// The Figure 6 behaviour map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Result {
    /// Geometric centres of the UE-cost bins (node-hours, log-spaced).
    pub cost_bin_centers: Vec<f64>,
    /// Centres of the RF-probability bins (linear, 0–1).
    pub prob_bin_centers: Vec<f64>,
    /// `mitigation_fraction[prob_bin][cost_bin]`: fraction of events in the bin for which
    /// the agent mitigates; `None` when the bin received no data.
    pub mitigation_fraction: Vec<Vec<Option<f64>>>,
    /// Number of states the map was built from.
    pub states_observed: usize,
}

impl Fig6Result {
    /// Mean mitigation fraction over a range of cost bins (ignoring empty bins).
    pub fn mean_fraction_for_cost_range(&self, min_cost: f64, max_cost: f64) -> Option<f64> {
        let mut total = 0.0;
        let mut count = 0usize;
        for row in &self.mitigation_fraction {
            for (j, cell) in row.iter().enumerate() {
                let center = self.cost_bin_centers[j];
                if center >= min_cost && center <= max_cost {
                    if let Some(f) = cell {
                        total += f;
                        count += 1;
                    }
                }
            }
        }
        (count > 0).then(|| total / count as f64)
    }

    /// Render the map as a text table (probability rows from high to low).
    pub fn render(&self) -> String {
        let mut headers: Vec<String> = vec!["P(UE) \\ cost".to_string()];
        headers.extend(self.cost_bin_centers.iter().map(|c| format!("{c:.0}")));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut rows = Vec::new();
        for (i, row) in self.mitigation_fraction.iter().enumerate().rev() {
            let mut cells = vec![format!("{:.2}", self.prob_bin_centers[i])];
            for cell in row {
                cells.push(match cell {
                    Some(f) => format!("{:.2}", f),
                    None => "  . ".to_string(),
                });
            }
            rows.push(cells);
        }
        format!(
            "Figure 6 — fraction of events mitigated by the RL agent ({} states)\n{}",
            self.states_observed,
            format_table(&header_refs, &rows)
        )
    }
}

/// Run Figure 6.
///
/// The forest and the agent are trained on the first 75% of the window; states are
/// collected from the held-out remainder. For every observed state, the y coordinate is
/// the RF probability of that state; the agent is then queried across the whole x-axis by
/// substituting each cost-bin centre into the state's potential-UE-cost feature, which is
/// how the map also shows the agent's generalisation to costs far beyond those observed
/// (the paper's 10^4–10^6 node-hour region).
pub fn run(ctx: &ExperimentContext, cost_bins: usize, prob_bins: usize) -> Fig6Result {
    assert!(cost_bins >= 2 && prob_bins >= 2, "need at least 2x2 bins");
    let models = train_models_on_prefix(ctx, 0.75);
    let holdout_tl = holdout(ctx, &models);
    let sampler = ctx.job_sampler(1.0);
    let states = collect_states(&holdout_tl, &sampler, ctx.mitigation, ctx.seed);
    let probe = models.rf_probe();

    // Log-spaced cost bins from 1 to 10^6 node-hours, as in the paper's x-axis: bin `i`
    // spans `[10^(low + width·i), 10^(low + width·(i+1)))` and is drawn at the geometric
    // mean of its edges.
    let (low, high) = (1f64.log10(), 1e6f64.log10());
    let width = (high - low) / cost_bins as f64;
    let edge = |i: usize| 10f64.powf(low + width * i as f64);
    let cost_bin_centers: Vec<f64> = (0..cost_bins)
        .map(|i| (edge(i) * edge(i + 1)).sqrt())
        .collect();
    let prob_bin_centers: Vec<f64> = (0..prob_bins)
        .map(|i| (i as f64 + 0.5) / prob_bins as f64)
        .collect();

    let mut mitigate_counts = vec![vec![0u64; cost_bins]; prob_bins];
    let mut total_counts = vec![vec![0u64; cost_bins]; prob_bins];
    for state in &states {
        let probability = probe.probability(state);
        let prob_bin = ((probability * prob_bins as f64) as usize).min(prob_bins - 1);
        for (cost_bin, &center) in cost_bin_centers.iter().enumerate() {
            let mut probe_state = state.clone();
            probe_state.potential_ue_cost = center;
            let mitigate = models.rl.decide(&probe_state);
            total_counts[prob_bin][cost_bin] += 1;
            if mitigate {
                mitigate_counts[prob_bin][cost_bin] += 1;
            }
        }
    }

    let mitigation_fraction = mitigate_counts
        .iter()
        .zip(&total_counts)
        .map(|(m_row, t_row)| {
            m_row
                .iter()
                .zip(t_row)
                .map(|(&m, &t)| (t > 0).then(|| m as f64 / t as f64))
                .collect()
        })
        .collect();

    Fig6Result {
        cost_bin_centers,
        prob_bin_centers,
        mitigation_fraction,
        states_observed: states.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::EvalBudget;

    /// The six log-spaced cost-bin centres of the smoke map, as `f64` bits.
    const COST_BIN_CENTER_BITS: [u64; 6] = [
        0x4009_4c58_3ada_5b53,
        0x403f_9f6e_4990_f227,
        0x4073_c3a4_edfa_9759,
        0x40a8_b48e_2979_3d2f,
        0x40de_e1b1_b3d7_8c7a,
        0x4113_4d0f_1066_b7cc,
    ];

    /// The smoke test's `render` output, pinned byte for byte.
    const RENDERED: &str = r"Figure 6 — fraction of events mitigated by the RL agent (393 states)
| P(UE) \ cost |    3 |   32 |  316 | 3162 | 31623 | 316228 |
|--------------|------|------|------|------|-------|--------|
|         0.88 | 0.23 | 0.23 | 0.23 | 0.31 |  0.69 |   1.00 |
|         0.62 | 0.19 | 0.14 | 0.22 | 0.58 |  0.75 |   1.00 |
|         0.38 | 0.42 | 0.41 | 0.42 | 0.71 |  0.92 |   1.00 |
|         0.12 | 0.60 | 0.45 | 0.49 | 0.83 |  0.93 |   1.00 |
";

    #[test]
    fn figure6_builds_a_complete_map() {
        let ctx = ExperimentContext::synthetic_small(30, 75, EvalBudget::tiny(), 67);
        let result = run(&ctx, 6, 4);
        assert_eq!(result.cost_bin_centers.len(), 6);
        assert_eq!(result.prob_bin_centers.len(), 4);
        assert_eq!(result.mitigation_fraction.len(), 4);
        assert!(result.states_observed > 0);
        // Cost bins are log-spaced and increasing.
        assert!(result
            .cost_bin_centers
            .windows(2)
            .all(|w| w[1] > w[0] * 2.0));
        // Fractions are valid probabilities.
        for row in &result.mitigation_fraction {
            for cell in row.iter().flatten() {
                assert!((0.0..=1.0).contains(cell));
            }
        }
        let center_bits: Vec<u64> = result
            .cost_bin_centers
            .iter()
            .map(|c| c.to_bits())
            .collect();
        assert_eq!(center_bits, COST_BIN_CENTER_BITS);
        assert_eq!(result.render(), RENDERED);
        let _ = result.mean_fraction_for_cost_range(1.0, 1e6);
    }
}
