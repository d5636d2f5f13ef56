//! The clinical alarm taxonomy.
//!
//! Labels for the streaming analysis layer (`cs-clinical`): beat classes
//! assigned by the morphology/RR classifier and the alarm conditions the
//! per-patient state machine tracks. Like [`crate::FaultKind`], both sets
//! are closed and small so the registry can back them with fixed
//! atomic-counter arrays — raising an alarm is one relaxed increment on
//! the decode hot path.

label_set! {
    /// A beat class assigned by the streaming classifier.
    pub enum BeatClass("class") {
        /// A sinus beat: on-time RR, normal morphology.
        Normal => "normal",
        /// Premature ventricular contraction: early, wide, high-energy QRS.
        Pvc => "pvc",
        /// Atrial premature contraction: early beat with normal QRS
        /// morphology.
        Apc => "apc",
    }
}

label_set! {
    /// An alarm condition tracked by the per-patient state machine.
    pub enum AlarmKind("kind") {
        /// A run of premature ventricular contractions in the recent beat
        /// history.
        PvcRun => "pvc_run",
        /// Sustained heart rate above the tachycardia threshold.
        Tachycardia => "tachycardia",
        /// Sustained heart rate below the bradycardia threshold.
        Bradycardia => "bradycardia",
        /// No detected beat for longer than the asystole timeout.
        Asystole => "asystole",
    }
}

/// Escalation level of an active alarm. Ordered: comparisons follow
/// clinical urgency, so `max()` over conditions yields the patient's
/// headline state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AlarmSeverity {
    /// Condition not present (or cleared past its hysteresis).
    Normal,
    /// Condition present; onset hysteresis satisfied. Auto-clears.
    Warning,
    /// Condition sustained or extreme. Latched: clears only after the
    /// latch holdoff, never mid-episode.
    Critical,
}

impl AlarmSeverity {
    /// Stable snake_case name for exports.
    pub fn name(self) -> &'static str {
        match self {
            AlarmSeverity::Normal => "normal",
            AlarmSeverity::Warning => "warning",
            AlarmSeverity::Critical => "critical",
        }
    }
}

impl std::fmt::Display for AlarmSeverity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_by_urgency() {
        assert!(AlarmSeverity::Normal < AlarmSeverity::Warning);
        assert!(AlarmSeverity::Warning < AlarmSeverity::Critical);
    }
}
