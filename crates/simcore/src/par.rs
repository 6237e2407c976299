//! The scoped fan-out every independent per-item experiment shares.

/// Maps `f` over `items` on scoped threads, one worker per item, and
/// returns the results in item order: workers are joined in spawn order.
/// Each call sees only its own item, so for a pure `f` the output is
/// identical to `items.iter().map(f).collect()`; only host time differs.
///
/// # Panics
///
/// Re-raises a worker's panic with its original payload (the first in
/// item order).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..9).collect();
        assert_eq!(
            par_map(&items, |&x| x * x),
            items.iter().map(|&x| x * x).collect::<Vec<_>>()
        );
        assert!(par_map(&[] as &[u64], |&x| x).is_empty());
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn a_worker_panic_keeps_its_message() {
        par_map(&[1, 2, 3], |&x| {
            assert!(x != 3, "item {x} failed");
            x
        });
    }
}
