//! esr-trace: the per-site event log and the cross-site timeline
//! merge.
//!
//! The daemon stamps every
//! [`Effect::Event`](crate::ctrl::Effect) its core emits with wall
//! micros and appends it to one bounded [`EventLog`] — the flight
//! recorder `esrctl trace` dumps whole and the trace certifier reads.
//! `esrctl spans <et>` scrapes every site's log over the client plane
//! ([`Frame::EventQuery`](esr_replica::wire::Frame)), keeps the
//! lifecycle records ([`span_records`]) and calls [`merge_timeline`]
//! to stitch them into one causal timeline.
//!
//! ## Merge rules (DESIGN.md §17)
//!
//! Wall clocks across sites are never compared to *order* the
//! timeline: ordering comes exclusively from the protocol's
//! happens-before edges, which the stage vocabulary encodes directly —
//!
//! ```text
//! submit@origin < enqueue@origin->p < deliver@p < held@p < apply@p
//! apply@every-site < complete-cert@coord < complete@site
//! decision-cert@coord < decision@site ; vtnc-cert@coord < vtnc@site
//! ```
//!
//! Every stage therefore gets a fixed causal rank; ties (genuinely
//! concurrent spans, e.g. two sites' applies) break deterministically
//! by origin-first, then site id, then per-ring sequence — so the same
//! execution always renders the same timeline, byte for byte.
//!
//! Wall stamps are still *shown* (and subtracted for the critical-path
//! breakdown): on one host — the proc-cluster and bench topology —
//! they share a clock and the durations are exact; across hosts the
//! ordering stays exact while durations inherit clock skew.
//!
//! ## Overflow
//!
//! The log is bounded (`esr_obs::events::EVENT_RING_CAPACITY`);
//! overflow evicts the oldest events and counts them. A merge over a
//! log that dropped records still orders what remains correctly (ranks
//! are per-record), but the critical path may lose edges — `esrctl
//! spans` surfaces the per-site drop counters so a truncated answer is
//! never mistaken for a complete one (the same honesty rule the trace
//! certifier applies to overflow).

use std::fmt::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use esr_core::ids::{EtId, SiteId, VersionTs};
use esr_obs::EventRing;
use esr_replica::span::{Event, SpanRec, SpanStage};

/// The `et` value in a [`Frame::EventQuery`](esr_replica::wire::Frame)
/// that selects every retained event.
pub const SPAN_QUERY_ALL: u64 = u64::MAX;

/// An event as it sits in a log and crosses the wire:
/// `(ring seq, wall micros, event)`.
pub type RawEvent = (u64, u64, Event);

/// A lifecycle record projected out of a [`RawEvent`]:
/// `(ring seq, wall micros, record)`.
pub type RawSpan = (u64, u64, SpanRec);

/// One incarnation's bounded event log, owned by its daemon.
///
/// Stamps are `wall_base + elapsed`: UNIX micros read once at start,
/// advanced by a monotonic clock, so every site on a host shares an
/// epoch (what lets `esrctl spans` subtract stamps across sites) and
/// no log's stamps run backwards.
#[derive(Debug)]
pub struct EventLog {
    ring: EventRing<Event>,
    wall_base: u64,
    boot: Instant,
}

impl EventLog {
    /// An empty log whose clock starts now.
    pub fn start() -> Self {
        Self {
            ring: EventRing::default(),
            wall_base: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_micros() as u64),
            boot: Instant::now(),
        }
    }

    /// Appends `event`, stamped now.
    pub fn record(&mut self, event: Event) {
        self.ring.record(self.now(), event);
    }

    /// Now, on this log's clock, in micros.
    pub fn now(&self) -> u64 {
        self.wall_base + self.boot.elapsed().as_micros() as u64
    }

    /// The evicted-event count plus the retained events `et` selects,
    /// oldest first: everything for [`SPAN_QUERY_ALL`], otherwise that
    /// ET's lifecycle records. VTNC horizon spans carry no ET and match
    /// every ET: the caller attributes them via apply versions.
    pub fn query(&self, et: u64) -> (u64, Vec<RawEvent>) {
        let all = et == SPAN_QUERY_ALL;
        self.ring.dump(|e| match e {
            Event::Span(r) => all || r.et.is_none() || r.et == Some(EtId(et)),
            _ => all,
        })
    }
}

/// The lifecycle records among `events`, order preserved.
pub fn span_records(events: Vec<RawEvent>) -> Vec<RawSpan> {
    events
        .into_iter()
        .filter_map(|(seq, micros, event)| match event {
            Event::Span(rec) => Some((seq, micros, rec)),
            _ => None,
        })
        .collect()
}

/// One span as it appears in a merged cross-site timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteSpan {
    /// The site whose ring recorded it.
    pub site: SiteId,
    /// Its per-ring sequence number (causal order *within* the site).
    pub seq: u64,
    /// Its wall stamp (UNIX micros at the recording site).
    pub micros: u64,
    /// The record itself.
    pub rec: SpanRec,
}

/// The fixed causal rank of a stage — the happens-before skeleton the
/// merge linearizes along. Replay shares Apply's rank: it is the
/// post-crash stand-in for the same hop.
fn rank(stage: SpanStage) -> u8 {
    match stage {
        SpanStage::Submit => 0,
        SpanStage::Enqueue => 1,
        SpanStage::Deliver => 2,
        SpanStage::Held => 3,
        SpanStage::Apply | SpanStage::Replay => 4,
        SpanStage::CompleteCert => 5,
        SpanStage::Complete => 6,
        SpanStage::DecisionCert => 7,
        SpanStage::Decision => 8,
        SpanStage::VtncCert => 9,
        SpanStage::Vtnc => 10,
    }
}

/// Merges per-site span dumps into one causally ordered timeline for
/// `et`.
///
/// Ordering is happens-before only (see the module doc): stage rank,
/// then origin-site-first, then site id, then ring seq — never wall
/// clocks. Exact duplicates of the same hop at the same site (a
/// re-delivered MSet, a re-driven control broadcast) keep the first
/// record. VTNC horizon spans (no ET) are attributed to `et` by
/// version: only horizons at or past the ET's max applied version are
/// kept, and only the first qualifying one per site *and stage* — the
/// moment this ET became VTNC-certified / VTNC-visible there (the
/// coordinator records both: its certificate and its own observation).
/// An ET with no versioned apply keeps no VTNC spans.
pub fn merge_timeline(
    per_site: &[(SiteId, Vec<RawSpan>)],
    et: EtId,
) -> Vec<SiteSpan> {
    // The ET's version horizon target, from any apply/replay span.
    let et_version: Option<VersionTs> = per_site
        .iter()
        .flat_map(|(_, spans)| spans.iter())
        .filter(|(_, _, r)| {
            r.et == Some(et)
                && matches!(r.stage, SpanStage::Apply | SpanStage::Replay)
        })
        .filter_map(|(_, _, r)| r.version)
        .max();
    // The origin site, identified by who recorded the submit span.
    let origin: Option<SiteId> = per_site
        .iter()
        .find(|(_, spans)| {
            spans
                .iter()
                .any(|(_, _, r)| r.et == Some(et) && r.stage == SpanStage::Submit)
        })
        .map(|(site, _)| *site);

    let mut out: Vec<SiteSpan> = Vec::new();
    let mut seen: Vec<(SiteId, SpanStage, Option<SiteId>)> = Vec::new();
    for (site, spans) in per_site {
        // (certificate seen, observation seen) — tracked separately so
        // the coordinator keeps both its vtnc-cert and its own vtnc.
        let mut vtnc_done = (false, false);
        for &(seq, micros, rec) in spans {
            let keep = match rec.et {
                Some(e) => e == et,
                // A horizon span: visible iff it covers the ET's
                // version, and only the first such per site and stage.
                None => match (et_version, rec.version) {
                    (Some(target), Some(h)) if h >= target => {
                        let slot = if rec.stage == SpanStage::VtncCert {
                            &mut vtnc_done.0
                        } else {
                            &mut vtnc_done.1
                        };
                        !std::mem::replace(slot, true)
                    }
                    _ => false,
                },
            };
            if !keep {
                continue;
            }
            let key = (*site, rec.stage, rec.peer);
            if rec.et.is_some() && seen.contains(&key) {
                continue; // duplicate hop: keep the first record
            }
            seen.push(key);
            out.push(SiteSpan {
                site: *site,
                seq,
                micros,
                rec,
            });
        }
    }
    out.sort_by_key(|s| {
        (
            rank(s.rec.stage),
            Some(s.site) != origin, // origin's span of a rank leads
            s.site,
            s.seq,
        )
    });
    out
}

/// One edge of the latency attribution: a label and its duration in
/// micros (`None` when either endpoint span is missing, e.g. evicted
/// by ring overflow or lost to a crash).
pub type PathEdge = (String, Option<u64>);

/// Attributes the ET's end-to-end latency to protocol stages, from a
/// merged timeline. Durations subtract wall stamps and assume the
/// sites share a clock (exact in the proc-cluster / bench topology;
/// approximate across hosts — the module doc's caveat).
pub fn critical_path(timeline: &[SiteSpan]) -> Vec<PathEdge> {
    let find = |stage: SpanStage, site: Option<SiteId>| -> Option<&SiteSpan> {
        timeline.iter().find(|s| {
            s.rec.stage == stage && site.is_none_or(|want| s.site == want)
        })
    };
    let sub = |a: Option<&SiteSpan>, b: Option<&SiteSpan>| -> Option<u64> {
        Some(a?.micros.saturating_sub(b?.micros))
    };
    let submit = find(SpanStage::Submit, None);
    let mut edges: Vec<PathEdge> = Vec::new();
    // Client queue wait: from the client's own wall stamp to the
    // daemon accepting the submit.
    if let Some(s) = submit {
        edges.push((
            "client queue".into(),
            s.rec.t0.map(|t0| s.micros.saturating_sub(t0)),
        ));
    }
    let origin = submit.map(|s| s.site);
    if let Some(origin) = origin {
        let local_apply = find(SpanStage::Apply, Some(origin))
            .or_else(|| find(SpanStage::Replay, Some(origin)));
        edges.push(("local apply".into(), sub(local_apply, submit)));
        // Per-peer propagation and hold-back, in site order.
        let mut peers: Vec<SiteId> = timeline
            .iter()
            .filter(|s| s.site != origin)
            .map(|s| s.site)
            .collect();
        peers.sort_unstable();
        peers.dedup();
        for peer in peers {
            let enqueue = timeline.iter().find(|s| {
                s.rec.stage == SpanStage::Enqueue && s.rec.peer == Some(peer)
            });
            let deliver = find(SpanStage::Deliver, Some(peer));
            let apply = find(SpanStage::Apply, Some(peer))
                .or_else(|| find(SpanStage::Replay, Some(peer)));
            edges.push((format!("{peer} transit"), sub(deliver, enqueue)));
            edges.push((format!("{peer} hold-back"), sub(apply, deliver)));
        }
    }
    // Control-plane tail: certification and per-site visibility.
    let last_apply = timeline
        .iter()
        .filter(|s| matches!(s.rec.stage, SpanStage::Apply | SpanStage::Replay))
        .max_by_key(|s| s.micros);
    for (cert, learn, label) in [
        (SpanStage::CompleteCert, SpanStage::Complete, "complete"),
        (SpanStage::DecisionCert, SpanStage::Decision, "decision"),
        (SpanStage::VtncCert, SpanStage::Vtnc, "vtnc"),
    ] {
        let cert_span = find(cert, None);
        if let Some(c) = cert_span {
            edges.push((format!("{label} certify"), sub(Some(c), last_apply)));
            let last_learned = timeline
                .iter()
                .filter(|s| s.rec.stage == learn)
                .max_by_key(|s| s.micros);
            edges.push((
                format!("{label} visibility"),
                sub(last_learned, Some(c)),
            ));
        }
    }
    edges
}

/// Renders a merged timeline. Full mode shows wall stamps relative to
/// the first span plus the critical-path breakdown; skeleton mode
/// (`skeleton = true`) drops every nondeterministic column (stamps,
/// ring seqs, durations) and prints only the causal skeleton — two
/// same-seed runs of a deterministic workload render byte-identical
/// skeletons, which CI asserts.
pub fn render_timeline(timeline: &[SiteSpan], skeleton: bool) -> String {
    let mut out = String::new();
    let base = timeline.iter().map(|s| s.micros).min().unwrap_or(0);
    for s in timeline {
        if skeleton {
            let mut rec = s.rec;
            rec.t0 = None; // wall stamp: nondeterministic
            let _ = writeln!(out, "{} {}", s.site, rec);
        } else {
            let _ = writeln!(out, "+{:>8}us {} {}", s.micros - base, s.site, s.rec);
        }
    }
    if !skeleton {
        for (label, micros) in critical_path(timeline) {
            match micros {
                Some(us) => {
                    let _ = writeln!(out, "path {label:<16} {us:>8}us");
                }
                None => {
                    let _ = writeln!(out, "path {label:<16}        ?");
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::ids::ClientId;

    fn et() -> EtId {
        EtId(7)
    }

    /// A 3-site lifecycle dump: submit at s0, propagate to s1/s2,
    /// complete. Wall stamps are deliberately adversarial (s1's clock
    /// runs "ahead") to prove ordering ignores them.
    fn three_site_dump() -> Vec<(SiteId, Vec<RawSpan>)> {
        let e = et();
        vec![
            (
                SiteId(0),
                vec![
                    (0, 100, SpanRec::new(SpanStage::Submit, e).with_t0(Some(40))),
                    (1, 101, SpanRec::new(SpanStage::Enqueue, e).to_peer(SiteId(1))),
                    (2, 102, SpanRec::new(SpanStage::Enqueue, e).to_peer(SiteId(2))),
                    (3, 110, SpanRec::new(SpanStage::Deliver, e)),
                    (4, 120, SpanRec::new(SpanStage::Apply, e)),
                    (5, 500, SpanRec::new(SpanStage::CompleteCert, e)),
                    (6, 510, SpanRec::new(SpanStage::Complete, e)),
                ],
            ),
            (
                SiteId(1),
                vec![
                    (0, 9_000, SpanRec::new(SpanStage::Deliver, e)),
                    (1, 9_100, SpanRec::new(SpanStage::Apply, e)),
                    (2, 9_800, SpanRec::new(SpanStage::Complete, e)),
                ],
            ),
            (
                SiteId(2),
                vec![
                    (0, 300, SpanRec::new(SpanStage::Deliver, e)),
                    (1, 310, SpanRec::new(SpanStage::Apply, e)),
                    (2, 560, SpanRec::new(SpanStage::Complete, e)),
                ],
            ),
        ]
    }

    #[test]
    fn query_filters_by_et_but_always_yields_horizons() {
        let mut log = EventLog::start();
        log.record(Event::Span(SpanRec::new(SpanStage::Apply, EtId(1))));
        log.record(Event::Span(SpanRec::new(SpanStage::Apply, EtId(2))));
        log.record(Event::Span(SpanRec::vtnc(
            SpanStage::Vtnc,
            VersionTs::new(5, ClientId(0)),
        )));
        log.record(Event::DuplicateDelivery { et: EtId(1) });
        let (dropped, one) = log.query(1);
        assert_eq!(dropped, 0);
        let one = span_records(one);
        assert_eq!(one.len(), 2, "et1 apply + the horizon span");
        assert!(one.iter().any(|(_, _, r)| r.et.is_none()));
        let (_, all) = log.query(SPAN_QUERY_ALL);
        assert_eq!(all.len(), 4, "every event, lifecycle or not");
        assert_eq!(span_records(all).len(), 3);
    }

    #[test]
    fn merge_orders_by_happens_before_not_clocks() {
        let timeline = merge_timeline(&three_site_dump(), et());
        let stages: Vec<(u64, SpanStage)> = timeline
            .iter()
            .map(|s| (s.site.raw(), s.rec.stage))
            .collect();
        // s1's wall clock is ~9ms ahead, yet its deliver sits with the
        // other delivers, strictly after both enqueues.
        let pos = |site: u64, stage: SpanStage| {
            stages.iter().position(|&(s, g)| s == site && g == stage).unwrap()
        };
        assert_eq!(pos(0, SpanStage::Submit), 0, "submit roots the timeline");
        assert!(pos(0, SpanStage::Enqueue) < pos(1, SpanStage::Deliver));
        assert!(pos(1, SpanStage::Deliver) < pos(1, SpanStage::Apply));
        assert!(pos(2, SpanStage::Apply) < pos(0, SpanStage::CompleteCert));
        assert!(pos(0, SpanStage::CompleteCert) < pos(1, SpanStage::Complete));
        // Origin-first tie-break within a rank.
        assert!(pos(0, SpanStage::Deliver) < pos(1, SpanStage::Deliver));
    }

    #[test]
    fn merge_dedups_redelivered_hops() {
        let mut dump = three_site_dump();
        // s2 sees the MSet twice (at-least-once link): second deliver
        // record must not appear in the timeline.
        dump[2].1.push((3, 999, SpanRec::new(SpanStage::Deliver, et())));
        let timeline = merge_timeline(&dump, et());
        let delivers = timeline
            .iter()
            .filter(|s| s.site == SiteId(2) && s.rec.stage == SpanStage::Deliver)
            .count();
        assert_eq!(delivers, 1);
    }

    #[test]
    fn vtnc_horizons_attach_by_version() {
        let e = et();
        let v3 = VersionTs::new(3, ClientId(0));
        let v2 = VersionTs::new(2, ClientId(0));
        let dump = vec![(
            SiteId(0),
            vec![
                (0, 10, SpanRec::new(SpanStage::Submit, e)),
                (1, 20, SpanRec::new(SpanStage::Apply, e).with_version(Some(v3))),
                // Below the ET's version: not its visibility moment.
                (2, 30, SpanRec::vtnc(SpanStage::Vtnc, v2)),
                (3, 40, SpanRec::vtnc(SpanStage::Vtnc, v3)),
                // Later horizon: redundant for this ET.
                (4, 50, SpanRec::vtnc(SpanStage::Vtnc, VersionTs::new(9, ClientId(0)))),
            ],
        )];
        let timeline = merge_timeline(&dump, e);
        let horizons: Vec<&SiteSpan> = timeline
            .iter()
            .filter(|s| s.rec.stage == SpanStage::Vtnc)
            .collect();
        assert_eq!(horizons.len(), 1);
        assert_eq!(horizons[0].rec.version, Some(v3));
    }

    #[test]
    fn replay_substitutes_for_a_lost_apply() {
        let e = et();
        let mut dump = three_site_dump();
        // s2 crashed after applying: its ring died, recovery re-emitted
        // the hop as a replay span.
        dump[2].1 = vec![
            (0, 700, SpanRec::new(SpanStage::Replay, e)),
            (1, 710, SpanRec::new(SpanStage::Complete, e)),
        ];
        let timeline = merge_timeline(&dump, e);
        let s2_replay = timeline
            .iter()
            .position(|s| s.site == SiteId(2) && s.rec.stage == SpanStage::Replay)
            .expect("replay span survives the merge");
        let cert = timeline
            .iter()
            .position(|s| s.rec.stage == SpanStage::CompleteCert)
            .unwrap();
        assert!(s2_replay < cert, "replay ranks with apply, before cert");
        let path = critical_path(&timeline);
        let hold = path
            .iter()
            .find(|(l, _)| l == "s2 hold-back")
            .expect("per-peer edge present");
        assert!(hold.1.is_none(), "missing deliver yields an honest unknown");
    }

    #[test]
    fn critical_path_attributes_every_stage() {
        let timeline = merge_timeline(&three_site_dump(), et());
        let path = critical_path(&timeline);
        let get = |label: &str| {
            path.iter()
                .find(|(l, _)| l == label)
                .unwrap_or_else(|| panic!("edge {label} missing"))
                .1
        };
        assert_eq!(get("client queue"), Some(60), "submit@100 - t0@40");
        assert_eq!(get("local apply"), Some(20));
        assert_eq!(get("s2 transit"), Some(198), "deliver@300 - enqueue@102");
        assert_eq!(get("s2 hold-back"), Some(10));
        // s1's skewed clock makes its edges large but still finite.
        assert_eq!(get("s1 transit"), Some(9_000 - 101));
        assert_eq!(get("complete certify"), Some(0), "clamped: cert@500 < apply@9100");
        assert_eq!(get("complete visibility"), Some(9_800 - 500));
    }

    #[test]
    fn skeleton_render_is_clock_free() {
        let timeline = merge_timeline(&three_site_dump(), et());
        let skel = render_timeline(&timeline, true);
        assert!(!skel.contains("us"), "no durations:\n{skel}");
        assert!(!skel.contains("t0="), "no wall stamps:\n{skel}");
        assert!(skel.lines().count() >= 10);
        // Re-merging a dump whose stamps all shifted renders the same
        // skeleton (what the CI same-seed check relies on).
        let shifted: Vec<(SiteId, Vec<RawSpan>)> = three_site_dump()
            .into_iter()
            .map(|(s, v)| {
                (s, v.into_iter().map(|(q, m, r)| (q, m + 1_000, r)).collect())
            })
            .collect();
        assert_eq!(
            skel,
            render_timeline(&merge_timeline(&shifted, et()), true)
        );
        let full = render_timeline(&timeline, false);
        assert!(full.contains("path client queue"), "{full}");
        assert!(full.starts_with("+       0us s0 submit"), "{full}");
    }
}
