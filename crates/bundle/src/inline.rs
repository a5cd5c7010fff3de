//! A stack that does not allocate until it is unusually deep.

/// A stack whose first `N` items live inline (on the owner's call stack,
/// typically) and only the rest on the heap: the allocation-free home of
/// short per-call lists — a snapshot walk's ancestors, one item per shard
/// a transaction touches — whose element type or lifetime keeps them out
/// of any reusable buffer.
pub struct InlineStack<T, const N: usize> {
    head: [Option<T>; N],
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
    pub fn new() -> Self {
        InlineStack {
            head: [const { None }; N],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Push `item` on top.
    pub fn push(&mut self, item: T) {
        match self.head.get_mut(self.len) {
            Some(slot) => {
                *slot = Some(item);
                self.len += 1;
            }
            None => self.spill.push(item),
        }
    }

    /// Remove and return the most recently pushed item.
    pub fn pop(&mut self) -> Option<T> {
        self.spill.pop().or_else(|| {
            self.len = self.len.checked_sub(1)?;
            self.head[self.len].take()
        })
    }

    /// The items, oldest first.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.head[..self.len]
            .iter_mut()
            .flatten()
            .chain(self.spill.iter_mut())
    }

    /// Drop every item, oldest first.
    pub fn clear(&mut self) {
        self.head[..self.len].fill_with(|| None);
        self.len = 0;
        self.spill.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
