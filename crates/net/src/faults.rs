//! Fault schedules: network partitions.
//!
//! A [`PartitionSchedule`] describes windows of virtual time during which
//! the site set is split into disconnected groups. Replica control must
//! be "robust in face of very slow links, network partitions, and site
//! failures" (§2.2); experiments E6 and E10 drive partitions through this
//! module.

use std::collections::BTreeSet;

use esr_core::ids::SiteId;
use esr_sim::time::VirtualTime;

/// One partition window: between `start` (inclusive) and `end`
/// (exclusive) the sites are split into `groups`; two sites communicate
/// only if some group contains both. Sites not listed in any group are
/// isolated for the window.
#[derive(Debug, Clone)]
pub struct PartitionWindow {
    /// When the partition begins.
    pub start: VirtualTime,
    /// When it heals.
    pub end: VirtualTime,
    /// The connected components during the window.
    pub groups: Vec<BTreeSet<SiteId>>,
}

impl PartitionWindow {
    /// Splits the sites into exactly two groups for a window.
    pub fn split(
        start: VirtualTime,
        end: VirtualTime,
        group_a: impl IntoIterator<Item = SiteId>,
        group_b: impl IntoIterator<Item = SiteId>,
    ) -> Self {
        Self {
            start,
            end,
            groups: vec![group_a.into_iter().collect(), group_b.into_iter().collect()],
        }
    }

    /// Isolates one site from everyone else for a window.
    pub fn isolate(
        start: VirtualTime,
        end: VirtualTime,
        victim: SiteId,
        others: impl IntoIterator<Item = SiteId>,
    ) -> Self {
        Self::split(start, end, [victim], others)
    }

    fn active_at(&self, at: VirtualTime) -> bool {
        self.start <= at && at < self.end
    }

    fn connects(&self, a: SiteId, b: SiteId) -> bool {
        self.groups
            .iter()
            .any(|g| g.contains(&a) && g.contains(&b))
    }
}

/// A schedule of partition windows.
#[derive(Debug, Clone, Default)]
pub struct PartitionSchedule {
    windows: Vec<PartitionWindow>,
}

impl PartitionSchedule {
    /// A schedule with no partitions: the network is always connected.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a schedule from windows.
    pub fn new(windows: Vec<PartitionWindow>) -> Self {
        Self { windows }
    }

    /// Adds a window.
    pub fn add(&mut self, window: PartitionWindow) {
        self.windows.push(window);
    }

    /// Can `a` reach `b` at time `at`? (A site can always reach itself.)
    pub fn connected(&self, a: SiteId, b: SiteId, at: VirtualTime) -> bool {
        if a == b {
            return true;
        }
        self.windows
            .iter()
            .filter(|w| w.active_at(at))
            .all(|w| w.connects(a, b))
    }

    /// The earliest time at or after `at` when `a` can reach `b`, or
    /// `None` if some window never ends before `horizon`.
    pub fn next_connected(
        &self,
        a: SiteId,
        b: SiteId,
        at: VirtualTime,
        horizon: VirtualTime,
    ) -> Option<VirtualTime> {
        let mut t = at;
        loop {
            if t > horizon {
                return None;
            }
            if self.connected(a, b, t) {
                return Some(t);
            }
            // Jump to the end of the earliest blocking window.
            let next_end = self
                .windows
                .iter()
                .filter(|w| w.active_at(t) && !w.connects(a, b))
                .map(|w| w.end)
                .min()?;
            t = next_end;
        }
    }

    /// True when any window is active at `at`.
    pub fn partitioned_at(&self, at: VirtualTime) -> bool {
        self.windows.iter().any(|w| w.active_at(at))
    }

    /// The time at which the last window heals ([`VirtualTime::ZERO`]
    /// when there are no windows).
    pub fn last_heal(&self) -> VirtualTime {
        self.windows
            .iter()
            .map(|w| w.end)
            .max()
            .unwrap_or(VirtualTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> VirtualTime {
        VirtualTime::from_millis(ms)
    }

    #[test]
    fn no_partitions_always_connected() {
        let p = PartitionSchedule::none();
        assert!(p.connected(SiteId(0), SiteId(1), t(0)));
        assert!(!p.partitioned_at(t(5)));
        assert_eq!(p.last_heal(), VirtualTime::ZERO);
    }

    #[test]
    fn split_blocks_cross_group_traffic() {
        let w = PartitionWindow::split(t(10), t(20), [SiteId(0), SiteId(1)], [SiteId(2)]);
        let p = PartitionSchedule::new(vec![w]);
        // Before the window: connected.
        assert!(p.connected(SiteId(0), SiteId(2), t(5)));
        // During: same group ok, cross group blocked.
        assert!(p.connected(SiteId(0), SiteId(1), t(15)));
        assert!(!p.connected(SiteId(0), SiteId(2), t(15)));
        assert!(!p.connected(SiteId(2), SiteId(1), t(10)), "start inclusive");
        // At the end instant it heals (end exclusive).
        assert!(p.connected(SiteId(0), SiteId(2), t(20)));
    }

    #[test]
    fn isolate_cuts_one_site_off() {
        let w = PartitionWindow::isolate(t(0), t(10), SiteId(3), [SiteId(0), SiteId(1), SiteId(2)]);
        let p = PartitionSchedule::new(vec![w]);
        assert!(!p.connected(SiteId(3), SiteId(0), t(5)));
        assert!(p.connected(SiteId(0), SiteId(1), t(5)));
        assert!(p.connected(SiteId(3), SiteId(3), t(5)), "self always reachable");
    }

    #[test]
    fn unlisted_sites_are_isolated_during_window() {
        let w = PartitionWindow::split(t(0), t(10), [SiteId(0)], [SiteId(1)]);
        let p = PartitionSchedule::new(vec![w]);
        assert!(!p.connected(SiteId(2), SiteId(0), t(5)));
        assert!(!p.connected(SiteId(2), SiteId(3), t(5)));
    }

    #[test]
    fn overlapping_windows_must_all_connect() {
        let w1 = PartitionWindow::split(t(0), t(20), [SiteId(0), SiteId(1)], [SiteId(2)]);
        let w2 = PartitionWindow::split(t(10), t(30), [SiteId(0)], [SiteId(1), SiteId(2)]);
        let p = PartitionSchedule::new(vec![w1, w2]);
        assert!(p.connected(SiteId(0), SiteId(1), t(5)), "only w1 active");
        assert!(!p.connected(SiteId(0), SiteId(1), t(15)), "w2 splits them");
        assert!(!p.connected(SiteId(1), SiteId(2), t(15)), "w1 splits them");
        assert!(p.connected(SiteId(1), SiteId(2), t(25)), "only w2 active");
    }

    #[test]
    fn next_connected_jumps_to_heal_time() {
        let w = PartitionWindow::split(t(10), t(20), [SiteId(0)], [SiteId(1)]);
        let p = PartitionSchedule::new(vec![w]);
        assert_eq!(p.next_connected(SiteId(0), SiteId(1), t(5), t(100)), Some(t(5)));
        assert_eq!(
            p.next_connected(SiteId(0), SiteId(1), t(12), t(100)),
            Some(t(20))
        );
        assert_eq!(p.next_connected(SiteId(0), SiteId(1), t(12), t(15)), None);
    }

    #[test]
    fn last_heal_is_max_end() {
        let p = PartitionSchedule::new(vec![
            PartitionWindow::split(t(0), t(10), [SiteId(0)], [SiteId(1)]),
            PartitionWindow::split(t(5), t(30), [SiteId(0)], [SiteId(1)]),
        ]);
        assert_eq!(p.last_heal(), t(30));
        assert!(p.partitioned_at(t(29)));
        assert!(!p.partitioned_at(t(30)));
    }
}
