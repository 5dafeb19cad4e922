//! Network topology: sites and per-link configuration.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use esr_core::ids::SiteId;

use crate::latency::LatencyModel;

/// Configuration of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Latency distribution of a successful hop.
    pub latency: LatencyModel,
    /// Probability that one delivery attempt is lost.
    pub drop_prob: f64,
    /// Probability that a delivered message is delivered twice.
    pub duplicate_prob: f64,
    /// Link bandwidth in bytes per second; `None` = infinite (no
    /// serialization delay, no congestion).
    pub bandwidth: Option<u64>,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            latency: LatencyModel::default(),
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            bandwidth: None,
        }
    }
}

impl LinkConfig {
    /// A perfectly reliable link with the given latency model.
    pub fn reliable(latency: LatencyModel) -> Self {
        Self {
            latency,
            ..Self::default()
        }
    }

    /// A lossy link.
    pub fn lossy(latency: LatencyModel, drop_prob: f64) -> Self {
        Self {
            latency,
            drop_prob,
            ..Self::default()
        }
    }

    /// Caps the link's bandwidth (bytes per second): sized sends pay a
    /// serialization delay and queue behind each other.
    pub fn with_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.bandwidth = Some(bytes_per_sec);
        self
    }
}

/// A set of sites and the link configuration between each ordered pair.
#[derive(Debug, Clone)]
pub struct Topology {
    sites: Vec<SiteId>,
    default_link: LinkConfig,
    overrides: BTreeMap<(SiteId, SiteId), LinkConfig>,
}

impl Topology {
    /// A full mesh of `n` sites (ids `0..n`) with one default link
    /// config.
    pub fn full_mesh(n: usize, default_link: LinkConfig) -> Self {
        Self {
            sites: (0..n as u64).map(SiteId).collect(),
            default_link,
            overrides: BTreeMap::new(),
        }
    }

    /// The sites, in id order.
    pub fn sites(&self) -> &[SiteId] {
        &self.sites
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True for the degenerate empty topology.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// True when `site` belongs to this topology.
    pub fn contains(&self, site: SiteId) -> bool {
        self.sites.binary_search(&site).is_ok()
    }

    /// Overrides the configuration of one directed link.
    pub fn set_link(&mut self, from: SiteId, to: SiteId, config: LinkConfig) {
        self.overrides.insert((from, to), config);
    }

    /// The configuration in force for a directed link.
    pub fn link(&self, from: SiteId, to: SiteId) -> LinkConfig {
        self.overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_sim::time::Duration;

    #[test]
    fn full_mesh_has_all_sites() {
        let t = Topology::full_mesh(4, LinkConfig::default());
        assert_eq!(t.len(), 4);
        assert!(t.contains(SiteId(0)));
        assert!(t.contains(SiteId(3)));
        assert!(!t.contains(SiteId(4)));
        assert!(!t.is_empty());
    }

    #[test]
    fn link_override_is_directional() {
        let mut t = Topology::full_mesh(2, LinkConfig::default());
        let slow = LinkConfig::reliable(LatencyModel::Constant(Duration::from_secs(1)));
        t.set_link(SiteId(0), SiteId(1), slow);
        assert_eq!(t.link(SiteId(0), SiteId(1)).drop_prob, 0.0);
        assert_eq!(
            t.link(SiteId(0), SiteId(1)).latency,
            LatencyModel::Constant(Duration::from_secs(1))
        );
        // Reverse direction untouched.
        assert_eq!(t.link(SiteId(1), SiteId(0)).latency, LatencyModel::default());
    }

    #[test]
    fn constructors() {
        let r = LinkConfig::reliable(LatencyModel::wan());
        assert_eq!(r.drop_prob, 0.0);
        let l = LinkConfig::lossy(LatencyModel::wan(), 0.1);
        assert_eq!(l.drop_prob, 0.1);
        assert_eq!(l.duplicate_prob, 0.0);
    }
}
