//! Masked selection over one row of action values: saturated edge nodes
//! must never be selected or bootstrapped through. `nn::tensor::Matrix`'s
//! batched row reductions follow the same rule (`tests/batch_parity.rs`).

/// Picks the valid action with the highest value from `values`,
/// respecting `mask` (entries with `mask[i] == false` are skipped).
///
/// Returns `None` if every action is masked out.
///
/// # Panics
///
/// Panics if `values` and `mask` lengths differ.
pub fn masked_argmax(values: &[f32], mask: &[bool]) -> Option<usize> {
    assert_eq!(values.len(), mask.len(), "values/mask length mismatch");
    let mut best: Option<(usize, f32)> = None;
    for (i, (&v, &ok)) in values.iter().zip(mask.iter()).enumerate() {
        if !ok {
            continue;
        }
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Maximum value among unmasked entries, or `None` if all masked.
///
/// # Panics
///
/// Panics if `values` and `mask` lengths differ.
pub fn masked_max(values: &[f32], mask: &[bool]) -> Option<f32> {
    masked_argmax(values, mask).map(|i| values[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_argmax_skips_invalid() {
        let values = [5.0, 9.0, 7.0];
        let mask = [true, false, true];
        assert_eq!(masked_argmax(&values, &mask), Some(2));
    }

    #[test]
    fn masked_argmax_all_masked_is_none() {
        assert_eq!(masked_argmax(&[1.0, 2.0], &[false, false]), None);
    }

    #[test]
    fn masked_argmax_prefers_first_on_tie() {
        assert_eq!(masked_argmax(&[3.0, 3.0], &[true, true]), Some(0));
    }

    #[test]
    fn masked_max_value() {
        assert_eq!(
            masked_max(&[1.0, 10.0, 5.0], &[true, false, true]),
            Some(5.0)
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let _ = masked_argmax(&[1.0], &[true, false]);
    }
}
