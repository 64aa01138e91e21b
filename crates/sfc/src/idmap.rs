//! [`IdMap`]: a map from `u64` ids to values, kept as two parallel
//! vectors sorted by id.
//!
//! The engine's id-keyed stores (live instances, active flows, open
//! telemetry records) hold a few hundred entries at most, and their ids
//! are issued in increasing order, so nearly every insert lands past the
//! last key and is a push. A lookup is a binary search over a dense `u64`
//! slice, and a removal shifts the tail down one place. At these sizes
//! that costs less than a B-tree's node allocations and pointer chasing,
//! and iteration stays in ascending id order, as a `BTreeMap`'s does.

/// A map from `u64` ids to `T`, iterated in ascending id order.
#[derive(Debug, Clone, PartialEq)]
pub struct IdMap<T> {
    /// Strictly ascending.
    ids: Vec<u64>,
    /// `values[i]` belongs to `ids[i]`.
    values: Vec<T>,
}

impl<T> Default for IdMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> IdMap<T> {
    /// An empty map.
    pub fn new() -> Self {
        Self {
            ids: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Inserts `value` under `id`; returns the value it displaced, if
    /// `id` was present. An id above every present id is a push.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        if self.ids.last().is_none_or(|&last| last < id) {
            self.ids.push(id);
            self.values.push(value);
            return None;
        }
        match self.ids.binary_search(&id) {
            Ok(i) => Some(std::mem::replace(&mut self.values[i], value)),
            Err(i) => {
                self.ids.insert(i, id);
                self.values.insert(i, value);
                None
            }
        }
    }

    /// The value under `id`.
    pub fn get(&self, id: u64) -> Option<&T> {
        Some(&self.values[self.position(id)?])
    }

    /// The value under `id`, mutably.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let i = self.position(id)?;
        Some(&mut self.values[i])
    }

    /// Where `id` sits in ascending id order: the index of its value in
    /// [`IdMap::as_slice`], until an insert or removal below it shifts it.
    pub fn position(&self, id: u64) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Removes and returns the value under `id`.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        self.remove_if(id, |_| true)
    }

    /// Removes and returns the value under `id` if `keep_out` accepts it;
    /// leaves the map unchanged otherwise.
    pub fn remove_if(&mut self, id: u64, keep_out: impl FnOnce(&T) -> bool) -> Option<T> {
        let i = self.position(id)?;
        if !keep_out(&self.values[i]) {
            return None;
        }
        Some(self.remove_at(i))
    }

    /// Removes and returns the value at `position`; every later entry
    /// moves down one place.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of bounds.
    pub fn remove_at(&mut self, position: usize) -> T {
        self.ids.remove(position);
        self.values.remove(position)
    }

    /// `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.ids.iter().copied().zip(&self.values)
    }

    /// Values in ascending id order.
    pub fn values(&self) -> std::slice::Iter<'_, T> {
        self.values.iter()
    }

    /// Values in ascending id order, as a slice indexed by
    /// [`IdMap::position`].
    pub fn as_slice(&self) -> &[T] {
        &self.values
    }

    /// Values in ascending id order, mutably.
    pub fn values_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.values.iter_mut()
    }
}

impl<T> std::ops::Index<u64> for IdMap<T> {
    type Output = T;

    /// # Panics
    ///
    /// Panics if `id` is absent.
    fn index(&self, id: u64) -> &T {
        match self.get(id) {
            Some(value) => value,
            None => panic!("IdMap has no entry {id}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reinserting_a_live_id_returns_the_displaced_value() {
        let mut map = IdMap::new();
        assert_eq!(map.insert(3, "first"), None);
        assert_eq!(map.insert(7, "other"), None);
        assert_eq!(map.insert(3, "second"), Some("first"));
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(3), Some(&"second"));
    }

    #[test]
    fn out_of_order_inserts_iterate_ascending() {
        let mut map = IdMap::new();
        for id in [5, 9, 2, 7, 0] {
            map.insert(id, id * 10);
        }
        assert!(map
            .iter()
            .eq([(0, &0), (2, &20), (5, &50), (7, &70), (9, &90)]));
        assert_eq!(map[7], 70);
    }

    #[test]
    fn remove_if_leaves_a_refused_entry() {
        let mut map = IdMap::new();
        map.insert(4, 40);
        assert_eq!(map.remove_if(4, |&v| v == 41), None);
        assert_eq!(map.len(), 1);
        assert_eq!(map.remove_if(4, |&v| v == 40), Some(40));
        assert_eq!(map.remove_if(4, |_| true), None);
        assert!(map.is_empty());
    }
}
