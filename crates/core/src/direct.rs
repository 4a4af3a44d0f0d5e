//! Direct-send composition (extension baseline).
//!
//! Every rank ships its partial of block `b` straight to block `b`'s owner
//! in a single logical step — the unscheduled all-to-all that the pipelined
//! method time-staggers. It is the standard third comparator in the
//! compositing literature (Hsu '93, Neumann '93) and is included for the
//! ablation benches; the paper itself compares only BS and PP.
//!
//! It is Radix-k with the single round `[P]` ([`crate::radix`]), which is
//! where its transfer list is built. Merge order at each owner matches the
//! pipelined method: nearer contributions merge in front (ordered
//! nearest-last in the transfer list), farther ones fold deepest-first into
//! the deferred back accumulator.

use crate::method::CompositionMethod;
use crate::radix::RadixK;
use crate::schedule::Schedule;
use crate::CoreError;
use serde::{Deserialize, Serialize};

/// The direct-send method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DirectSend;

impl DirectSend {
    /// Construct the method (block count is always `P`).
    pub fn new() -> Self {
        Self
    }
}

impl CompositionMethod for DirectSend {
    fn name(&self) -> String {
        "DS".to_string()
    }

    fn build(&self, p: usize, image_len: usize) -> Result<Schedule, CoreError> {
        if p == 0 {
            return Err(CoreError::UnsupportedShape {
                method: "direct-send",
                why: "zero ranks".into(),
            });
        }
        // One round of radix `P`; a single rank has nothing to exchange.
        let radices = if p > 1 { vec![p] } else { Vec::new() };
        let mut schedule = RadixK::new(radices).build(p, image_len)?;
        schedule.method = self.name();
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::verify_schedule;

    #[test]
    fn all_processor_counts_verify() {
        for p in 1..=16 {
            let s = DirectSend::new().build(p, 1600).unwrap();
            verify_schedule(&s).unwrap_or_else(|e| panic!("p={p}: {e}"));
        }
    }

    #[test]
    fn message_count_is_p_times_p_minus_one() {
        let s = DirectSend::new().build(9, 900).unwrap();
        assert_eq!(s.message_count(), 9 * 8);
        assert_eq!(s.step_count(), 1);
        assert_eq!(s.pixels_shipped(), 8 * 900);
    }

    #[test]
    fn single_rank_needs_no_messages() {
        let s = DirectSend::new().build(1, 100).unwrap();
        assert_eq!(s.step_count(), 0);
        assert_eq!(s.message_count(), 0);
        verify_schedule(&s).unwrap();
    }
}
