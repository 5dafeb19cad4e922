//! The event plane: the one typed vocabulary every executor records
//! and every consumer reads.
//!
//! An update ET's life is distributed by design — it commits at its
//! origin and propagates lazily — so no single site's metrics can say
//! where the ET's latency went. Each site instead records an
//! [`Event`] at every protocol point it witnesses: a [`SpanRec`] for
//! each hop of an ET's lifecycle (submit, link enqueue, delivery,
//! hold-back, apply, completion, VTNC visibility, COMPE decision) and
//! a typed variant for everything else worth a line in the flight
//! recorder (absorbed duplicates, handshakes, view changes, the
//! checkpoint chain, boot). `esrctl spans` merges every site's span
//! records into one causal timeline ordered by the protocol's
//! happens-before edges; the trace certifier (`esr-check`) replays the
//! same events against the per-method visibility specs; `esrctl trace`
//! renders them through [`fmt::Display`] — text nothing parses again.
//!
//! The types here are pure data: no clocks, no I/O. Timestamps are
//! attached by the *executor* when it records an `Event` effect (the
//! step machines stay deterministic), and the client-submit wall stamp
//! `t0` rides inside the MSet so every site can report queueing delay
//! against the same epoch.
//!
//! The metrics registry is one more consumer, and this module holds
//! every rule that feeds a site's series from what the site reports:
//! the counters are folded from the events the node records
//! ([`Event::count`]), the query series from each query's outcome
//! ([`count_query`]), and the replica's gauges are read from its state
//! when the registry is about to be read ([`publish_readings`]). The
//! sites and the core hold no instrument.

use std::fmt;

use serde::{Deserialize, Serialize};

use esr_core::ids::{ClientId, EtId, SeqNo, SiteId, VersionTs};
use esr_obs::NodeInstruments;

use crate::site::{QueryOutcome, SiteReadings};

/// A protocol hop in an ET's distributed lifecycle.
///
/// The `*Cert` stages are coordinator-only: they mark the moment the
/// control plane *certified* a fact (all sites applied, horizon
/// advanced, decision taken), as opposed to the moment an individual
/// site *learned* it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SpanStage {
    /// Client-plane submit accepted at the origin site.
    Submit,
    /// MSet handed to the link toward `peer`.
    Enqueue,
    /// MSet arrived at a site (journalled before anything else).
    Deliver,
    /// ORDUP hold-back: delivered but parked behind a sequence gap.
    Held,
    /// Applied to the local replica.
    Apply,
    /// Re-applied from the journal (or a snapshot suffix) during
    /// recovery — the post-crash stand-in for a lost `Apply` span.
    Replay,
    /// Coordinator certified completion: every site reported applied.
    CompleteCert,
    /// Completion learned at a site.
    Complete,
    /// Coordinator advanced the VTNC horizon.
    VtncCert,
    /// VTNC horizon learned at a site.
    Vtnc,
    /// Coordinator certified a COMPE commit/abort decision.
    DecisionCert,
    /// Decision learned at a site.
    Decision,
}

impl SpanStage {
    /// Stable lowercase name (used by renderers and the wire codec
    /// tests; the wire codec itself ships the discriminant).
    pub fn name(self) -> &'static str {
        match self {
            SpanStage::Submit => "submit",
            SpanStage::Enqueue => "enqueue",
            SpanStage::Deliver => "deliver",
            SpanStage::Held => "held",
            SpanStage::Apply => "apply",
            SpanStage::Replay => "replay",
            SpanStage::CompleteCert => "complete-cert",
            SpanStage::Complete => "complete",
            SpanStage::VtncCert => "vtnc-cert",
            SpanStage::Vtnc => "vtnc",
            SpanStage::DecisionCert => "decision-cert",
            SpanStage::Decision => "decision",
        }
    }
}

impl fmt::Display for SpanStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One span record, as emitted by the pure step machines.
///
/// The recording site and the wall-clock stamp are *not* part of the
/// record: the site is implied by whose ring the record sits in, and
/// the stamp is attached by the daemon at effect-execution time so the
/// step machines never read a clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRec {
    /// The protocol hop.
    pub stage: SpanStage,
    /// The ET this span belongs to. `None` for VTNC horizon spans,
    /// which cover every ET at or below the horizon; the merge step
    /// attributes them via the apply spans' versions.
    pub et: Option<EtId>,
    /// For [`SpanStage::Enqueue`]: the link's destination site.
    pub peer: Option<SiteId>,
    /// RITU version timestamp (apply spans) or the new horizon (VTNC
    /// spans).
    pub version: Option<VersionTs>,
    /// ORDUP global sequence number, when the MSet carries one.
    pub gseq: Option<SeqNo>,
    /// Client-submit wall stamp (UNIX micros), minted by the client
    /// and carried in the MSet — present on origin-side spans so the
    /// timeline can charge client queueing delay.
    pub t0: Option<u64>,
    /// COMPE decision spans: `true` = commit, `false` = abort.
    pub commit: Option<bool>,
}

impl SpanRec {
    /// A span for `stage` on `et` with no extras.
    pub fn new(stage: SpanStage, et: EtId) -> Self {
        Self {
            stage,
            et: Some(et),
            peer: None,
            version: None,
            gseq: None,
            t0: None,
            commit: None,
        }
    }

    /// A VTNC horizon span (no single ET).
    pub fn vtnc(stage: SpanStage, horizon: VersionTs) -> Self {
        Self {
            stage,
            et: None,
            peer: None,
            version: Some(horizon),
            gseq: None,
            t0: None,
            commit: None,
        }
    }

    /// Attaches the enqueue destination.
    pub fn to_peer(mut self, peer: SiteId) -> Self {
        self.peer = Some(peer);
        self
    }

    /// Attaches a version timestamp.
    pub fn with_version(mut self, version: Option<VersionTs>) -> Self {
        self.version = version;
        self
    }

    /// Attaches an ORDUP global sequence number.
    pub fn with_gseq(mut self, gseq: Option<SeqNo>) -> Self {
        self.gseq = gseq;
        self
    }

    /// Attaches the client-submit wall stamp.
    pub fn with_t0(mut self, t0: Option<u64>) -> Self {
        self.t0 = t0;
        self
    }

    /// Attaches a COMPE decision outcome.
    pub fn with_commit(mut self, commit: bool) -> Self {
        self.commit = Some(commit);
        self
    }
}

impl fmt::Display for SpanRec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.stage)?;
        if let Some(et) = self.et {
            write!(f, " {et}")?;
        }
        if let Some(peer) = self.peer {
            write!(f, " ->{peer}")?;
        }
        if let Some(v) = self.version {
            write!(f, " v={v}")?;
        }
        if let Some(s) = self.gseq {
            write!(f, " seq={s}")?;
        }
        if let Some(c) = self.commit {
            write!(f, " {}", if c { "commit" } else { "abort" })?;
        }
        if let Some(t0) = self.t0 {
            write!(f, " t0={t0}")?;
        }
        Ok(())
    }
}

/// One observational event, as emitted by the pure step machines and
/// the executors around them. Purely observational: dropping every
/// `Event` must leave behaviour unchanged — no executor derives a reply
/// or a protocol decision from one.
///
/// Like [`SpanRec`], an event names neither its recording site nor a
/// time: the site is whose ring it sits in, the stamp is the
/// executor's. Free text appears only as the unparsed `detail` of a
/// failure variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// One hop of an ET's lifecycle.
    Span(SpanRec),
    /// An MSet redelivered after its ET had already been applied (or
    /// parked in the hold-back queue) here; absorbed by the replica's
    /// idempotency guard.
    DuplicateDelivery {
        /// The redelivered ET.
        et: EtId,
    },
    /// A retried client submit answered from the client table with the
    /// original ET.
    DuplicateSubmit {
        /// The retrying client.
        client: ClientId,
        /// Its request sequence number.
        seq: u64,
        /// The ET the original submit was given.
        et: EtId,
    },
    /// A peer link (re)connected and introduced itself.
    Hello {
        /// The peer.
        site: SiteId,
        /// Its boot epoch.
        epoch: u64,
    },
    /// This site started (or joined) the election of `view`.
    ViewChangeStart {
        /// The view being elected.
        view: u64,
    },
    /// This site installed `view`.
    ViewInstall {
        /// The installed view.
        view: u64,
        /// That view's coordinator.
        coordinator: SiteId,
    },
    /// A checkpoint was cut.
    CkptCut {
        /// Journalled MSets the cut covers.
        covered: u64,
    },
    /// This incarnation booted from a checkpoint image.
    CkptRestore {
        /// Journalled MSets the image covers.
        covered: u64,
        /// The view booted into.
        view: u64,
    },
    /// A cut was durably installed as snapshot `seq`.
    CkptInstall {
        /// The snapshot's sequence number.
        seq: u64,
        /// Journalled MSets it covers.
        covered: u64,
    },
    /// The journal prefix the previous snapshot covered was retired.
    CkptTruncate {
        /// Journal entry id retired through.
        through: u64,
        /// Entries retired.
        retired: u64,
    },
    /// A wiped site installed a peer's snapshot before booting.
    CkptCatchUp {
        /// The fetched snapshot's sequence number.
        seq: u64,
        /// Journalled MSets it covers.
        covered: u64,
        /// The peer it came from.
        from: SiteId,
    },
    /// Snapshot `seq` could not be installed or restored.
    CkptFailed {
        /// The snapshot's sequence number.
        seq: u64,
        /// What went wrong (unparsed).
        detail: String,
    },
    /// The daemon finished boot recovery.
    Boot {
        /// This incarnation's boot epoch.
        epoch: u64,
        /// `(seq, covered)` of the snapshot restored from; `None` after
        /// a full journal replay.
        snapshot: Option<(u64, u64)>,
        /// Journal entries replayed (the suffix, after a restore).
        replayed: u64,
        /// The view booted into.
        view: u64,
    },
}

impl Event {
    /// Feeds the site's counters from this event — the only mapping
    /// from the event plane to a counter; the node calls it where it
    /// records the event. A `Replay` is the restarted site's delivery
    /// and apply in one. A journal record the restored image already
    /// covers emits no event and counts as nothing: the image, not a
    /// delivery, put it there. A boot counts the records it handed to
    /// the replay, an install one checkpoint, a truncation the records
    /// it retired.
    pub fn count(&self, obs: &NodeInstruments) {
        match self {
            Event::Span(rec) => match rec.stage {
                SpanStage::Deliver => obs.msets_delivered.inc(),
                SpanStage::Apply => obs.msets_applied.inc(),
                SpanStage::Replay => {
                    obs.msets_delivered.inc();
                    obs.msets_applied.inc();
                }
                _ => {}
            },
            Event::DuplicateDelivery { .. } => obs.redelivered.inc(),
            Event::Boot { replayed, .. } => obs.replays.add(*replayed),
            Event::CkptInstall { .. } => obs.checkpoints.inc(),
            Event::CkptTruncate { retired, .. } => obs.truncated.add(*retired),
            _ => {}
        }
    }
}

/// Feeds the query series from one query's outcome against the
/// `limit` it was asked under: the last query's charge and limit, and
/// the running totals. Called right after the executor's query.
pub fn count_query(out: &QueryOutcome, limit: u64, obs: &NodeInstruments) {
    obs.query_epsilon_charged.set_u64(out.charged);
    obs.query_epsilon_limit.set_u64(limit);
    if out.admitted {
        obs.epsilon_charged_total.add(out.charged);
        obs.queries_admitted.inc();
    } else {
        obs.queries_rejected.inc();
    }
}

/// Copies what a site holds ([`crate::site::ReplicaSite::readings`])
/// into its gauges — called when a registry is about to be read. The
/// compensation count is the site's own total, copied into a counter
/// that never moves backwards: a lower reading (a simulated site
/// between crash and replay) leaves it where it was.
pub fn publish_readings(r: SiteReadings, obs: &NodeInstruments) {
    obs.backlog.set_u64(r.backlog);
    obs.at_risk.set_u64(r.at_risk);
    obs.compensations.raise_to(r.compensations);
    obs.lock_counter_high_water.set_u64(r.lock_counter_high_water);
    obs.vtnc_time.set_u64(r.vtnc_time);
    obs.vtnc_lag.set_u64(r.vtnc_lag);
}

/// Renders the `component<TAB>message` columns of an `esrctl trace`
/// line.
impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Span(rec) => write!(f, "span\t{rec}"),
            Event::DuplicateDelivery { et } => write!(f, "apply\tet {} duplicate", et.raw()),
            Event::DuplicateSubmit { client, seq, et } => write!(
                f,
                "client\tduplicate submit client {} seq {seq} -> et {}",
                client.raw(),
                et.raw()
            ),
            Event::Hello { site, epoch } => {
                write!(f, "peer\thello from site {} epoch {epoch}", site.raw())
            }
            Event::ViewChangeStart { view } => {
                write!(f, "view\tstart view change -> view {view}")
            }
            Event::ViewInstall { view, coordinator } => write!(
                f,
                "view\tinstall view {view}, coordinator site {}",
                coordinator.raw()
            ),
            Event::CkptCut { covered } => write!(f, "ckpt\tcut covered={covered}"),
            Event::CkptRestore { covered, view } => {
                write!(f, "ckpt\trestore covered={covered} view={view}")
            }
            Event::CkptInstall { seq, covered } => {
                write!(f, "ckpt\tinstall seq={seq} covered={covered}")
            }
            Event::CkptTruncate { through, retired } => {
                write!(f, "ckpt\ttruncate through={through} retired={retired}")
            }
            Event::CkptCatchUp { seq, covered, from } => write!(
                f,
                "ckpt\tcatch-up: installed snapshot seq {seq} (covered {covered}) from site {}",
                from.raw()
            ),
            Event::CkptFailed { seq, detail } => {
                write!(f, "ckpt\tsnapshot seq {seq} failed: {detail}")
            }
            Event::Boot {
                epoch,
                snapshot: Some((seq, covered)),
                replayed,
                view,
            } => write!(
                f,
                "boot\tepoch {epoch}: restored snapshot seq {seq} (covered {covered}), \
                 replayed {replayed} suffix entries, view {view}"
            ),
            Event::Boot {
                epoch,
                snapshot: None,
                replayed,
                view,
            } => write!(
                f,
                "boot\tepoch {epoch}: replayed {replayed} journal entries, view {view}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_core::ids::ClientId;

    #[test]
    fn display_is_compact() {
        let rec = SpanRec::new(SpanStage::Apply, EtId(7))
            .with_version(Some(VersionTs::new(3, ClientId(1))))
            .with_gseq(Some(SeqNo(2)));
        let s = rec.to_string();
        assert!(s.starts_with("apply"), "{s}");
        assert!(s.contains("et7"), "{s}");
        assert!(s.contains("seq=#2"), "{s}");
    }

    /// The whole event → counter table: three stages and four variants
    /// count, everything else is silent.
    #[test]
    fn count_feeds_exactly_the_event_counters() {
        let registry = esr_obs::MetricsRegistry::new();
        let obs = NodeInstruments::for_site(&registry, "commu", SiteId(0));
        let span = |stage| Event::Span(SpanRec::new(stage, EtId(1)));
        for event in [
            span(SpanStage::Submit),
            span(SpanStage::Deliver),
            span(SpanStage::Held),
            span(SpanStage::Deliver),
            Event::DuplicateDelivery { et: EtId(1) },
            span(SpanStage::Apply),
            span(SpanStage::Replay),
            span(SpanStage::Complete),
            Event::CkptCut { covered: 1 },
            Event::CkptRestore { covered: 1, view: 0 },
            Event::CkptInstall { seq: 1, covered: 1 },
            Event::CkptInstall { seq: 2, covered: 3 },
            Event::CkptTruncate {
                through: 4,
                retired: 5,
            },
            Event::CkptFailed {
                seq: 3,
                detail: String::new(),
            },
            Event::Boot {
                epoch: 2,
                snapshot: None,
                replayed: 7,
                view: 0,
            },
        ] {
            event.count(&obs);
        }
        let snap = registry.snapshot();
        let read = |name| snap.value(name, &[("method", "commu"), ("site", "0")]);
        assert_eq!(read("esr_msets_delivered_total"), Some(3), "two arrivals + one replay");
        assert_eq!(read("esr_msets_applied_total"), Some(2), "one apply + one replay");
        assert_eq!(read("esr_redelivered_total"), Some(1));
        let read = |name| snap.value(name, &[("site", "0")]);
        assert_eq!(read("esr_recovery_replays_total"), Some(7));
        assert_eq!(read("esr_checkpoint_total"), Some(2));
        assert_eq!(read("esr_journal_truncated_total"), Some(5));
    }

    #[test]
    fn count_query_keeps_the_last_query_and_the_totals() {
        let registry = esr_obs::MetricsRegistry::new();
        let obs = NodeInstruments::for_site(&registry, "ordup", SiteId(2));
        let admitted = QueryOutcome {
            values: Vec::new(),
            charged: 2,
            admitted: true,
        };
        count_query(&admitted, 10, &obs);
        count_query(&QueryOutcome::rejected(), u64::MAX, &obs);
        let snap = registry.snapshot();
        let read = |name| snap.value(name, &[("method", "ordup"), ("site", "2")]);
        assert_eq!(read("esr_epsilon_charged_total"), Some(2));
        assert_eq!(read("esr_queries_admitted_total"), Some(1));
        assert_eq!(read("esr_queries_rejected_total"), Some(1));
        assert_eq!(read("esr_query_epsilon_charged"), Some(0), "a rejection charges nothing");
        assert_eq!(read("esr_query_epsilon_limit"), Some(i64::MAX), "UNBOUNDED clamps");
    }

    #[test]
    fn publish_readings_sets_the_gauges_and_never_lowers_compensations() {
        let registry = esr_obs::MetricsRegistry::new();
        let obs = NodeInstruments::for_site(&registry, "compe", SiteId(1));
        let readings = SiteReadings {
            backlog: 3,
            at_risk: 1,
            compensations: 2,
            lock_counter_high_water: 4,
            vtnc_time: 7,
            vtnc_lag: 2,
        };
        publish_readings(readings, &obs);
        publish_readings(SiteReadings { compensations: 1, ..readings }, &obs);
        let snap = registry.snapshot();
        let read = |name| snap.value(name, &[("method", "compe"), ("site", "1")]);
        assert_eq!(read("esr_backlog"), Some(3));
        assert_eq!(read("esr_at_risk"), Some(1));
        assert_eq!(read("esr_compensations_total"), Some(2), "never backwards");
        assert_eq!(read("esr_lock_counter_high_water"), Some(4));
        assert_eq!(read("esr_vtnc_time"), Some(7));
        assert_eq!(read("esr_vtnc_lag"), Some(2));
    }

    #[test]
    fn vtnc_spans_have_no_et() {
        let rec = SpanRec::vtnc(SpanStage::Vtnc, VersionTs::new(9, ClientId(0)));
        assert!(rec.et.is_none());
        assert!(rec.version.is_some());
    }

    /// Pins every variant's `esrctl trace` columns. The text is an
    /// operator/CI surface (`grep boot`, `grep 'restored snapshot'`,
    /// `grep catch-up`, `grep 'apply et1'`); nothing parses it.
    #[test]
    fn display_golden() {
        let golden: Vec<(Event, &str)> = vec![
            (
                Event::Span(SpanRec::new(SpanStage::Apply, EtId(1)).with_gseq(Some(SeqNo(2)))),
                "span\tapply et1 seq=#2",
            ),
            (
                Event::DuplicateDelivery { et: EtId(7) },
                "apply\tet 7 duplicate",
            ),
            (
                Event::DuplicateSubmit {
                    client: ClientId(7),
                    seq: 1,
                    et: EtId(1),
                },
                "client\tduplicate submit client 7 seq 1 -> et 1",
            ),
            (
                Event::Hello {
                    site: SiteId(2),
                    epoch: 3,
                },
                "peer\thello from site 2 epoch 3",
            ),
            (
                Event::ViewChangeStart { view: 1 },
                "view\tstart view change -> view 1",
            ),
            (
                Event::ViewInstall {
                    view: 1,
                    coordinator: SiteId(1),
                },
                "view\tinstall view 1, coordinator site 1",
            ),
            (Event::CkptCut { covered: 4 }, "ckpt\tcut covered=4"),
            (
                Event::CkptRestore {
                    covered: 2,
                    view: 0,
                },
                "ckpt\trestore covered=2 view=0",
            ),
            (
                Event::CkptInstall { seq: 3, covered: 4 },
                "ckpt\tinstall seq=3 covered=4",
            ),
            (
                Event::CkptTruncate {
                    through: 1,
                    retired: 2,
                },
                "ckpt\ttruncate through=1 retired=2",
            ),
            (
                Event::CkptCatchUp {
                    seq: 4,
                    covered: 4,
                    from: SiteId(1),
                },
                "ckpt\tcatch-up: installed snapshot seq 4 (covered 4) from site 1",
            ),
            (
                Event::CkptFailed {
                    seq: 5,
                    detail: "disk full".into(),
                },
                "ckpt\tsnapshot seq 5 failed: disk full",
            ),
            (
                Event::Boot {
                    epoch: 2,
                    snapshot: Some((3, 40)),
                    replayed: 5,
                    view: 1,
                },
                "boot\tepoch 2: restored snapshot seq 3 (covered 40), \
                 replayed 5 suffix entries, view 1",
            ),
            (
                Event::Boot {
                    epoch: 1,
                    snapshot: None,
                    replayed: 0,
                    view: 0,
                },
                "boot\tepoch 1: replayed 0 journal entries, view 0",
            ),
        ];
        for (event, line) in golden {
            assert_eq!(event.to_string(), line);
        }
    }
}
