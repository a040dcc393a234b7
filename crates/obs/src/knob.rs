//! Unified `UERL_*` environment-knob parsing.
//!
//! Every workspace knob follows the same contract: a small closed set of accepted
//! values, the empty string meaning "the default", and a **panic** on anything else —
//! a silently misread knob would invalidate a measurement run. Before this module the
//! contract was copy-pasted (and had already drifted: some parsers panicked, others
//! silently defaulted); now `UERL_SCALE` and `UERL_METRICS` both route through
//! [`choice`] / [`env_choice`], so per-crate drift cannot happen. Every crate that
//! reads a knob calls these directly.

/// Map a knob's raw value onto one of its accepted choices.
///
/// `choices` pairs each accepted string with its parsed value; include an `""` entry
/// when the empty string should select the default.
///
/// # Panics
/// Panics with `"<knob> must be one of ..."` on any value not listed — the shared
/// strict contract of every `UERL_*` knob.
pub fn choice<T: Copy>(knob: &str, value: &str, choices: &[(&str, T)]) -> T {
    for (accepted, parsed) in choices {
        if *accepted == value {
            return *parsed;
        }
    }
    let accepted: Vec<&str> = choices
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !name.is_empty())
        .collect();
    panic!(
        "{knob} must be one of {}, got {value:?}",
        accepted.join(" / ")
    );
}

/// Read a knob from the environment: unset selects `default`, a set value must parse
/// through [`choice`].
///
/// # Panics
/// As [`choice`], when the variable is set to an unaccepted value.
pub fn env_choice<T: Copy>(knob: &str, choices: &[(&str, T)], default: T) -> T {
    match std::env::var(knob) {
        Ok(value) => choice(knob, &value, choices),
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: &[(&str, u8)] = &[("", 0), ("off", 0), ("on", 1)];

    #[test]
    fn accepted_values_parse() {
        assert_eq!(choice("UERL_TEST", "", MODES), 0);
        assert_eq!(choice("UERL_TEST", "off", MODES), 0);
        assert_eq!(choice("UERL_TEST", "on", MODES), 1);
    }

    #[test]
    #[should_panic(expected = "UERL_TEST must be one of off / on, got \"blue\"")]
    fn unknown_values_panic_with_the_accepted_set() {
        choice("UERL_TEST", "blue", MODES);
    }

    #[test]
    fn unset_env_selects_the_default() {
        // An environment variable no test sets.
        assert_eq!(env_choice("UERL_OBS_KNOB_UNSET_TEST", MODES, 7), 7);
    }
}
