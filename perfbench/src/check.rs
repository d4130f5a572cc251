//! Correctness gate: every answer is compared bit for bit with an
//! in-process reference, and every mismatch is counted as a failed
//! operation (which also makes the run exit non-zero).

/// Whether two probability rows are bit-identical.
pub(crate) fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Tally of checked operations.
#[derive(Debug, Default, Clone)]
pub(crate) struct Checker {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// The first few failures, for the run's output file.
    pub(crate) notes: Vec<String>,
}

impl Checker {
    /// Record one operation; `Err` carries why it failed.
    pub(crate) fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(note) = outcome {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(note);
            }
        }
    }

    /// Check a served answer against the reference answer for the same
    /// image on the same snapshot version.
    pub(crate) fn answer(&mut self, request: u64, got: (usize, &[f64]), want: (usize, &[f64])) {
        let ok = got.0 == want.0 && same_bits(got.1, want.1);
        self.record(if ok {
            Ok(())
        } else {
            Err(format!(
                "request {request}: got label {} probs {:?}, want label {} probs {:?}",
                got.0, got.1, want.0, want.1
            ))
        });
    }

    /// Check that a pass produced the reference hard labels.
    pub(crate) fn labels(&mut self, what: &str, got: &[usize], want: &[usize]) {
        self.record(if got == want {
            Ok(())
        } else {
            let diff = got.iter().zip(want).filter(|(a, b)| a != b).count();
            Err(format!("{what}: {diff} hard labels differ from the reference"))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_answer_is_caught() {
        let want = [0.8125, 0.1875];
        let mut c = Checker::default();
        c.answer(1, (0, &want), (0, &want));
        assert_eq!((c.attempted, c.failed), (1, 0));
        // One ulp off in one probability is a mismatch.
        let nudged = [f64::from_bits(want[0].to_bits() + 1), want[1]];
        c.answer(2, (0, &nudged), (0, &want));
        // A flipped label with identical probabilities is a mismatch.
        c.answer(3, (1, &want), (0, &want));
        assert_eq!((c.attempted, c.failed), (3, 2));
        assert!(c.notes[0].starts_with("request 2"));
    }

    #[test]
    fn differing_hard_labels_are_caught() {
        let mut c = Checker::default();
        c.labels("pass 1", &[0, 1, 1], &[0, 1, 1]);
        c.labels("pass 2", &[0, 0, 1], &[0, 1, 1]);
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert!(c.notes[0].contains("1 hard labels differ"));
    }
}
