//! A stack that does not allocate until it is unusually deep.

use std::mem::MaybeUninit;

/// A stack whose first `N` items live inline (on the owner's call stack,
/// typically) and only the rest on the heap: the allocation-free home of
/// short per-call lists — a snapshot walk's ancestors, one item per shard
/// a transaction touches — whose element type or lifetime keeps them out
/// of any reusable buffer.
///
/// The inline slots are uninitialised memory until pushed to, so building
/// one costs nothing however large `N` is.
pub struct InlineStack<T, const N: usize> {
    head: [MaybeUninit<T>; N],
    /// Items held. The first `min(len, N)` slots of `head` are initialised
    /// and `spill` holds the other `len - N`.
    len: usize,
    spill: Vec<T>,
}

impl<T, const N: usize> Default for InlineStack<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> InlineStack<T, N> {
    /// An empty stack.
    #[must_use]
    #[inline]
    pub fn new() -> Self {
        InlineStack {
            head: [const { MaybeUninit::uninit() }; N],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Push `item` on top.
    #[inline]
    pub fn push(&mut self, item: T) {
        match self.head.get_mut(self.len) {
            Some(slot) => {
                slot.write(item);
            }
            None => self.spill.push(item),
        }
        self.len += 1;
    }

    /// Remove and return the most recently pushed item.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.len = self.len.checked_sub(1)?;
        match self.head.get(self.len) {
            // SAFETY: slot `len` was below the old length, so a `push`
            // initialised it, and the new length hands its item to the
            // caller alone.
            Some(slot) => Some(unsafe { slot.assume_init_read() }),
            None => self.spill.pop(),
        }
    }

    /// The items, oldest first.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.head[..self.len.min(N)]
            .iter_mut()
            // SAFETY: the slots below `len` are initialised (see `len`).
            .map(|slot| unsafe { slot.assume_init_mut() })
            .chain(self.spill.iter_mut())
    }

    /// Drop every item, oldest first.
    pub fn clear(&mut self) {
        // Forget the items before dropping them: if a drop panics the rest
        // leak instead of being dropped again by `Drop`.
        let live = std::mem::take(&mut self.len).min(N);
        for slot in &mut self.head[..live] {
            // SAFETY: initialised (it was below `len`) and, with `len`
            // already zero, never read again.
            unsafe { slot.assume_init_drop() };
        }
        self.spill.clear();
    }
}

impl<T, const N: usize> Drop for InlineStack<T, N> {
    fn drop(&mut self) {
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn it_is_a_stack_across_the_spill_boundary() {
        let mut l: InlineStack<String, 2> = InlineStack::new();
        assert!(l.pop().is_none());
        for i in 0..5 {
            l.push(i.to_string());
        }
        let seen: Vec<String> = l.iter_mut().map(|s| s.clone()).collect();
        assert_eq!(seen, ["0", "1", "2", "3", "4"]);
        assert_eq!(l.pop().as_deref(), Some("4"));
        assert_eq!(l.pop().as_deref(), Some("3"));
        assert_eq!(l.pop().as_deref(), Some("2"));
        l.push("x".into());
        assert_eq!(l.pop().as_deref(), Some("x"));
        l.clear();
        assert!(l.pop().is_none() && l.iter_mut().next().is_none());
    }

    /// Only live slots are dropped, each exactly once, whether the item
    /// left through `pop`, `clear` or the stack's own drop — inline and
    /// spilled alike.
    #[test]
    fn every_item_is_dropped_exactly_once_across_the_spill_boundary() {
        struct Counted<'a>(&'a Cell<usize>);
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        fn push<'a>(l: &mut InlineStack<Counted<'a>, 2>, n: usize, drops: &'a Cell<usize>) {
            for _ in 0..n {
                l.push(Counted(drops));
            }
        }
        let drops = Cell::new(0);
        // Never pushed to: the uninitialised slots are left alone.
        drop(InlineStack::<Counted<'_>, 2>::new());
        assert_eq!(drops.get(), 0);

        let mut l = InlineStack::new();
        push(&mut l, 5, &drops);
        drop(l.pop());
        assert_eq!(drops.get(), 1, "a popped item is the caller's to drop");
        l.clear();
        assert_eq!(drops.get(), 5, "clear drops the two inline and two spilled");
        l.clear();
        assert_eq!(drops.get(), 5, "a cleared stack has nothing live");

        // Reused after a clear, then dropped holding two inline items and
        // one spilled.
        push(&mut l, 4, &drops);
        drop(l.pop());
        assert_eq!(drops.get(), 6);
        drop(l);
        assert_eq!(drops.get(), 9);

        let mut l = InlineStack::new();
        push(&mut l, 1, &drops);
        drop(l);
        assert_eq!(drops.get(), 10, "one live slot, one uninitialised");
    }
}
