//! Time-ordered event sequences.

/// Event timestamp: seconds since an arbitrary epoch.
pub type Timestamp = i64;

/// A time-sorted sequence of `(timestamp, payload)` events — a user's
/// "behavior trajectory [...] along the time-line" (Section 5).
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline<T> {
    events: Vec<(Timestamp, T)>,
}

impl<T> Default for Timeline<T> {
    fn default() -> Self {
        Timeline { events: Vec::new() }
    }
}

impl<T> Timeline<T> {
    /// Empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from events in any order; sorts by timestamp (stable, so equal
    /// timestamps keep insertion order).
    pub fn from_events(mut events: Vec<(Timestamp, T)>) -> Self {
        events.sort_by_key(|e| e.0);
        Timeline { events }
    }

    /// Append an event, keeping order. Amortized O(1) for in-order inserts
    /// (the common generation path), O(n) otherwise.
    pub fn push(&mut self, t: Timestamp, payload: T) {
        if self.events.last().map(|e| e.0 <= t).unwrap_or(true) {
            self.events.push((t, payload));
        } else {
            let pos = self.events.partition_point(|e| e.0 <= t);
            self.events.insert(pos, (t, payload));
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are stored.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events in time order.
    pub fn iter(&self) -> impl Iterator<Item = &(Timestamp, T)> {
        self.events.iter()
    }

    /// Approximate heap size of the event buffer (length-based, shallow —
    /// payload-owned heap, if any, is not traversed; the serving-layer
    /// timelines carry plain-value payloads).
    pub fn heap_bytes(&self) -> usize {
        self.events.len() * std::mem::size_of::<(Timestamp, T)>()
    }

    /// All events as a sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[(Timestamp, T)] {
        &self.events
    }

    /// Events with `start ≤ t < end`.
    pub fn range(&self, start: Timestamp, end: Timestamp) -> &[(Timestamp, T)] {
        let lo = self.events.partition_point(|e| e.0 < start);
        let hi = self.events.partition_point(|e| e.0 < end);
        &self.events[lo..hi]
    }

    /// Earliest timestamp, if any.
    fn first_time(&self) -> Option<Timestamp> {
        self.events.first().map(|e| e.0)
    }

    /// Latest timestamp, if any.
    fn last_time(&self) -> Option<Timestamp> {
        self.events.last().map(|e| e.0)
    }

    /// `(first, last)` or `None` when empty.
    pub fn span(&self) -> Option<(Timestamp, Timestamp)> {
        match (self.first_time(), self.last_time()) {
            (Some(a), Some(b)) => Some((a, b)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_events_sorts() {
        let t = Timeline::from_events(vec![(30, "c"), (10, "a"), (20, "b")]);
        let order: Vec<Timestamp> = t.iter().map(|e| e.0).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn push_keeps_order_for_out_of_order_inserts() {
        let mut t = Timeline::new();
        t.push(10, "a");
        t.push(30, "c");
        t.push(20, "b");
        let order: Vec<&str> = t.iter().map(|e| e.1).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn range_is_half_open() {
        let t = Timeline::from_events(vec![(10, 1), (20, 2), (30, 3)]);
        let r: Vec<i32> = t.range(10, 30).iter().map(|e| e.1).collect();
        assert_eq!(r, vec![1, 2]);
        assert!(t.range(31, 40).is_empty());
        assert_eq!(t.range(i64::MIN, i64::MAX).len(), 3);
    }

    #[test]
    fn span_and_emptiness() {
        let empty: Timeline<()> = Timeline::new();
        assert!(empty.is_empty());
        assert_eq!(empty.span(), None);
        let t = Timeline::from_events(vec![(5, ()), (9, ())]);
        assert_eq!(t.span(), Some((5, 9)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn equal_timestamps_keep_insertion_order() {
        let mut t = Timeline::new();
        t.push(10, "first");
        t.push(10, "second");
        let payloads: Vec<&str> = t.iter().map(|e| e.1).collect();
        assert_eq!(payloads, vec!["first", "second"]);
    }
}
