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

use crate::schedule::Schedule;
use crate::CoreError;

/// Compile direct-send for `p` ranks and an `image_len`-pixel frame.
pub fn schedule(p: usize, image_len: usize) -> Result<Schedule, CoreError> {
    if p == 0 {
        return Err(CoreError::UnsupportedShape {
            method: "direct-send",
            why: "zero ranks".into(),
        });
    }
    // One round of radix `P`; a single rank has nothing to exchange.
    let radices = if p > 1 { vec![p] } else { Vec::new() };
    let mut schedule = crate::radix::schedule(p, image_len, &radices)?;
    schedule.method = "DS".to_string();
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::verify_schedule;

    #[test]
    fn all_processor_counts_verify() {
        for p in 1..=16 {
            let s = schedule(p, 1600).unwrap();
            verify_schedule(&s).unwrap_or_else(|e| panic!("p={p}: {e}"));
        }
    }

    #[test]
    fn message_count_is_p_times_p_minus_one() {
        let s = schedule(9, 900).unwrap();
        assert_eq!(s.message_count(), 9 * 8);
        assert_eq!(s.step_count(), 1);
        assert_eq!(s.pixels_shipped(), 8 * 900);
    }

    #[test]
    fn single_rank_needs_no_messages() {
        let s = schedule(1, 100).unwrap();
        assert_eq!(s.step_count(), 0);
        assert_eq!(s.message_count(), 0);
        verify_schedule(&s).unwrap();
    }
}
