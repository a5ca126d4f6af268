//! Output checks: budget accounting and the selection fingerprint.

use chef_core::RoundReport;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a digest of everything a cleaning run decided: every selected
/// index and suggested label, every round's F1 bits, and the final
/// parameter bits. Two runs with equal fingerprints made the same choices
/// and ended at the same model.
pub fn fingerprint(rounds: &[RoundReport], final_w: &[f64]) -> u64 {
    let mut h = FNV_OFFSET;
    for r in rounds {
        for sel in &r.selected {
            h = fold(h, &(sel.index as u64).to_le_bytes());
            h = fold(h, &sel.suggested.map_or(0, |c| c as u64 + 1).to_le_bytes());
        }
        h = fold(h, &r.val_f1.to_bits().to_le_bytes());
        h = fold(h, &r.test_f1.to_bits().to_le_bytes());
    }
    for w in final_w {
        h = fold(h, &w.to_bits().to_le_bytes());
    }
    h
}

/// Budget accounting of one run: every budget slot was spent, and each
/// spent slot ended cleaned or abstained. `Err` says what did not add up.
pub fn budget(rounds: &[RoundReport], cleaned_total: usize, budget: usize) -> Result<(), String> {
    let spent: usize = rounds.iter().map(|r| r.selected.len()).sum();
    let cleaned: usize = rounds.iter().map(|r| r.cleaned).sum();
    let abstained: usize = rounds.iter().map(|r| r.ambiguous).sum();
    if spent == cleaned + abstained && spent == budget && cleaned == cleaned_total {
        Ok(())
    } else {
        Err(format!(
            "spent {spent}, cleaned {cleaned} (report {cleaned_total}), abstained {abstained}, budget {budget}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_core::Selection;

    fn round(selected: &[usize], cleaned: usize, ambiguous: usize) -> RoundReport {
        RoundReport {
            round: 0,
            selected: selected
                .iter()
                .map(|&index| Selection {
                    index,
                    suggested: Some(1),
                })
                .collect(),
            cleaned,
            ambiguous,
            val_f1: 0.5,
            test_f1: 0.25,
            select_time: Default::default(),
            update_time: Default::default(),
            selector_stats: None,
            telemetry: Default::default(),
        }
    }

    #[test]
    fn budget_adds_up_or_says_why() {
        let rounds = [round(&[1, 2], 2, 0), round(&[3, 4], 1, 1)];
        assert!(budget(&rounds, 3, 4).is_ok());
        assert!(budget(&rounds, 3, 5).is_err(), "budget not spent");
        assert!(budget(&[round(&[1, 2], 1, 0)], 1, 2).is_err(), "slot lost");
    }

    #[test]
    fn fingerprint_sees_selection_and_weights() {
        let a = [round(&[1, 2], 2, 0)];
        let b = [round(&[2, 1], 2, 0)];
        assert_eq!(fingerprint(&a, &[1.0]), fingerprint(&a, &[1.0]));
        assert_ne!(fingerprint(&a, &[1.0]), fingerprint(&b, &[1.0]));
        assert_ne!(fingerprint(&a, &[1.0]), fingerprint(&a, &[-1.0]));
    }
}
