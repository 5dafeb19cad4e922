//! One site's effect executor: the [`NodeCore`] plus everything that
//! performing its effects takes — the commit plan ([`crate::commit`]),
//! the view register, the checkpoint chain (cut, install, lag-by-one
//! truncation), boot by restore-or-replay, and the per-site executor
//! series. `esrd` and [`crate::cluster::SimCluster`] both run a
//! [`Node`]; they differ only in the [`Host`] they hand it, which is
//! all of the node's I/O:
//!
//! * `esrd`'s host is files and its reactor: the journal file,
//!   `site-<i>.view`, snapshot containers installed by a writer thread,
//!   the durable links, the event ring and the monotonic clock;
//! * the simulator's host is memory and its virtual-time network: a
//!   journal with stable ids, a view register, the two newest snapshot
//!   containers, an event log stamped in virtual time, and an outbox
//!   the network drains after each step's commit.
//!
//! The model checker (`crates/check`) steps [`NodeCore`] directly with
//! registers of its own, so nothing here moves its state counts.
//!
//! ## Boot
//!
//! [`Node::boot`] reads the view register, then restores the newest
//! snapshot that decodes, restores, and is continued by the journal,
//! replaying the journal suffix past its cut. With no such image it
//! replays the whole journal — but only a journal nothing was ever
//! retired from. A journal whose prefix a checkpoint retired, with no
//! usable image left, is a boot error: the rest of it would boot a
//! replica missing acknowledged updates (DESIGN.md §16.3).
//!
//! ## Commit
//!
//! A step writes only the view register, the event log and a cut handed
//! to the snapshot writer. Its journal records and sends are staged,
//! and [`Node::commit`] writes them in the plan's order — once per
//! reactor cycle in `esrd`, once per step in the simulator. Time is read
//! only through [`Host::now`]: the same latency histograms run on a
//! monotonic clock in `esrd` and on virtual time in the simulator.

use std::collections::VecDeque;
use std::io;

use esr_core::ids::SiteId;
use esr_obs::{CkptInstruments, Counter, Gauge, Histogram, MetricsRegistry, SiteInstruments};

use crate::commit::{Staged, Write};
use crate::ctrl::{Effect, NodeCore, NodeEvent};
use crate::mset::MSet;
use crate::node_ckpt::{decode_payload, CkptPayload};
use crate::span::Event;
use crate::state::{RtMethod, SiteState};
use crate::wire::Frame;

/// All of a node's I/O.
pub trait Host {
    /// Appends one commit's journal records, in order, in one write;
    /// returns the bytes appended.
    fn append(&mut self, records: Vec<MSet>) -> u64;
    /// Every live journal record with its id, oldest first; a record
    /// that does not decode is an `InvalidData` error naming its id.
    fn journal(&self) -> io::Result<Vec<(u64, MSet)>>;
    /// The id of the newest record ever appended (`None` for a journal
    /// that never held one). Ids count from 0 and are never reused.
    fn last_id(&self) -> Option<u64>;
    /// Retires every record with id `<= through`; returns how many.
    fn retire_through(&mut self, through: u64) -> u64;
    /// What the journal occupies: bytes, and live records.
    fn journal_size(&self) -> (u64, u64);
    /// The durably recorded view (0 when none was recorded).
    fn view(&self) -> u64;
    /// Durably records view `view`.
    fn record_view(&mut self, view: u64);
    /// The snapshot containers on record, newest first — intact or not.
    fn snapshots(&self) -> Vec<u64>;
    /// The payload of container `seq`, if the container is intact.
    fn load_snapshot(&self, seq: u64) -> Option<Vec<u8>>;
    /// Hands cut number `seq` to the snapshot writer, which reports on
    /// every cut, in cut order.
    fn cut(&mut self, seq: u64, payload: Box<CkptPayload>);
    /// The writer's next report: waits for one when `wait`, else `None`
    /// when none is ready.
    fn installed(&mut self, wait: bool) -> Option<Install>;
    /// Sends `frames`, in order, on the link to `to`, in one write.
    fn send(&mut self, to: SiteId, frames: Vec<Frame>);
    /// Records one event, stamped now.
    fn record(&mut self, event: Event);
    /// Now, in microseconds: the node's only clock.
    fn now(&self) -> u64;
}

/// What a node boots as, besides its host and its blank replica.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// This site's id.
    pub site: SiteId,
    /// Sites in the cluster.
    pub sites: usize,
    /// The replica control method.
    pub method: RtMethod,
    /// This incarnation's boot epoch.
    pub epoch: u64,
    /// Checkpoint policy: cut after roughly this many bytes of journal
    /// appends (`None`: only on demand).
    pub ckpt_bytes: Option<u64>,
}

/// What a node knows about its checkpoint chain.
#[derive(Debug, Clone, Copy, Default)]
pub struct CkptState {
    /// Sequence of the newest installed snapshot (0 = none yet).
    pub seq: u64,
    /// Journalled-MSet count that snapshot covers.
    pub covered: u64,
    /// That snapshot's journal id cut (`None` for a catch-up image,
    /// whose ids refer to a peer's journal).
    pub covered_through: Option<u64>,
    /// Sequence handed to the newest cut (`>= seq`; the ones above
    /// `seq` are with the writer or failed).
    pub cut: u64,
}

/// The snapshot writer's report on one cut: the container's size and
/// the encode-and-install time in micros, or why it failed.
pub type Install = Result<(u64, u64), String>;

/// One booted site: the pure core and what executing it takes.
#[derive(Debug)]
pub struct Node {
    /// The control-plane state machine.
    core: NodeCore,
    /// Journal records and link sends stepped but not yet written.
    staged: Staged,
    /// The checkpoint chain.
    ckpt: CkptState,
    /// The cuts with the writer, oldest first, each as the chain would
    /// read once it is installed.
    in_flight: VecDeque<CkptState>,
    /// Checkpoint policy: cut after roughly this many journal bytes.
    ckpt_bytes: Option<u64>,
    /// Journal bytes appended since the last policy cut.
    ckpt_bytes_since: u64,
    /// Set when a commit reaches the policy's limit; that commit cuts
    /// once its writes are done, so the cut is a consistent prefix.
    ckpt_due: bool,
    /// The site's replica series, fed from the core's events.
    site_obs: SiteInstruments,
    /// Checkpoint and journal series.
    ckpt_obs: CkptInstruments,
    /// The installed view (`esr_view`).
    view_gauge: Gauge,
    /// Whether this site holds the coordinator role (`esr_coordinator`).
    coordinator_gauge: Gauge,
    /// Elections taken part in (`esr_elections_total`, counted at the
    /// first StartViewChange sent per election).
    elections: Counter,
    /// First StartViewChange sent to the next view recorded
    /// (`esr_election_latency_micros`).
    election_latency: Histogram,
    /// When the election in progress started.
    election_started: Option<u64>,
    /// Journal records plus link frames per non-empty commit
    /// (`esr_commit_records`): the batching a commit achieved.
    commit_records: Histogram,
    /// Latency of a non-empty commit (`esr_commit_latency_micros`).
    commit_latency: Histogram,
}

impl Node {
    /// Boots a node over `host`: restores the newest usable snapshot
    /// plus the journal suffix past it, or replays a journal nothing
    /// was retired from into `blank`; records the boot; and commits
    /// what recovery stepped — the re-announcement of recovered applies,
    /// which the previous incarnation may have died before sending.
    /// Series register in `metrics`; `site_obs` counts the core's
    /// events. Fails when a journal record does not decode, or when the
    /// journal was truncated and no snapshot restores.
    pub fn boot(
        host: &mut impl Host,
        cfg: NodeConfig,
        blank: SiteState,
        metrics: &MetricsRegistry,
        site_obs: SiteInstruments,
    ) -> io::Result<Self> {
        let label = cfg.site.raw().to_string();
        let site: &[(&str, &str)] = &[("site", &label)];
        let ckpt_obs = CkptInstruments::for_site(metrics, cfg.site.raw());
        let view = host.view();
        let journal = host.journal()?;
        // Every record from this id on is live; the ones before it were
        // retired, so only an image covering them can stand in for them.
        let first_live = journal
            .first()
            .map_or(host.last_id().map_or(0, |id| id + 1), |(id, _)| *id);
        let snapshots = host.snapshots();
        let mut restored = None;
        for &seq in &snapshots {
            // A torn or bit-flipped container is no snapshot at all.
            let Some(bytes) = host.load_snapshot(seq) else {
                continue;
            };
            let detail = match decode_payload(&bytes) {
                None => "undecodable",
                Some(p) if p.covered_through.is_some_and(|cut| cut + 1 < first_live) => {
                    "the journal past its cut was retired"
                }
                Some(p) => {
                    let chain = CkptState {
                        seq,
                        covered: p.covered,
                        covered_through: p.covered_through,
                        cut: seq,
                    };
                    let suffix: Vec<MSet> = journal
                        .iter()
                        .filter(|(id, _)| p.covered_through.is_none_or(|cut| *id > cut))
                        .map(|(_, m)| m.clone())
                        .collect();
                    let replayed = suffix.len() as u64;
                    let started = host.now();
                    let (method, at) = (cfg.method, view.max(p.view));
                    match NodeCore::restore(method, cfg.site, cfg.sites, None, at, p, suffix) {
                        Some((core, effects)) => {
                            ckpt_obs.suffix_replay(host.now().saturating_sub(started));
                            restored = Some((core, effects, chain, replayed));
                            break;
                        }
                        None => "method mismatch",
                    }
                }
            };
            host.record(Event::CkptFailed {
                seq,
                detail: format!("{detail}; not restored"),
            });
        }
        let (core, recovery, mut ckpt, replayed) = match restored {
            Some(restored) => restored,
            None if first_live == 0 => {
                let entries: Vec<MSet> = journal.into_iter().map(|(_, m)| m).collect();
                let replayed = entries.len() as u64;
                let (core, effects) =
                    NodeCore::recover(blank, cfg.method, cfg.site, cfg.sites, None, view, entries);
                (core, effects, CkptState::default(), replayed)
            }
            None => {
                let why = format!("journal ids below {first_live} retired, no snapshot restores");
                return Err(io::Error::new(io::ErrorKind::InvalidData, why));
            }
        };
        // One account of the boot, whichever branch ran: the records
        // handed to the replay here, the `Replay` spans among the
        // recovery effects counted when they are performed below.
        metrics
            .counter("esr_recovery_replays_total", site)
            .add(replayed);
        host.record(Event::Boot {
            epoch: cfg.epoch,
            snapshot: (ckpt.seq > 0).then_some((ckpt.seq, ckpt.covered)),
            replayed,
            view: core.view,
        });
        // Never re-issue a sequence number a container already claims,
        // even one that did not restore.
        ckpt.seq = ckpt.seq.max(snapshots.first().copied().unwrap_or(0));
        ckpt.cut = ckpt.seq;
        let (bytes, live) = host.journal_size();
        ckpt_obs.journal(bytes, live);
        let view_gauge = metrics.gauge("esr_view", site);
        view_gauge.set(core.view as i64);
        let coordinator_gauge = metrics.gauge("esr_coordinator", site);
        coordinator_gauge.set(i64::from(core.coord.is_some()));
        let mut node = Self {
            core,
            staged: Staged::default(),
            ckpt,
            in_flight: VecDeque::new(),
            ckpt_bytes: cfg.ckpt_bytes,
            ckpt_bytes_since: 0,
            ckpt_due: false,
            site_obs,
            ckpt_obs,
            view_gauge,
            coordinator_gauge,
            elections: metrics.counter("esr_elections_total", site),
            election_latency: metrics.histogram("esr_election_latency_micros", site),
            election_started: None,
            commit_records: metrics.histogram("esr_commit_records", site),
            commit_latency: metrics.histogram("esr_commit_latency_micros", site),
        };
        node.perform(host, recovery);
        node.commit(host);
        Ok(node)
    }

    /// The control-plane core.
    pub fn core(&self) -> &NodeCore {
        &self.core
    }

    /// The replica, for a query: reading one goes through `&mut`.
    pub fn state_mut(&mut self) -> &mut SiteState {
        &mut self.core.state
    }

    /// What is stepped and not yet committed.
    pub fn staged(&self) -> &Staged {
        &self.staged
    }

    /// The checkpoint chain.
    pub fn chain(&self) -> CkptState {
        self.ckpt
    }

    /// Steps the core on `event` and performs what it returns: view
    /// records, events and cuts at once, in order; journal records and
    /// sends are staged for the commit.
    pub fn dispatch(&mut self, host: &mut impl Host, event: NodeEvent) {
        let effects = self.core.step(event);
        self.perform(host, effects);
        self.coordinator_gauge
            .set(i64::from(self.core.coord.is_some()));
    }

    /// Writes everything staged ([`crate::commit`]'s order), then cuts
    /// a checkpoint if those writes reached the policy's byte limit.
    pub fn commit(&mut self, host: &mut impl Host) {
        self.write(host);
        if self.ckpt_due {
            self.cut(host);
        }
    }

    /// An on-demand checkpoint: cuts like the policy does, then waits
    /// for the writer to report on that cut and every cut before it, so
    /// the answer reflects the new snapshot. Returns the chain's
    /// `(seq, covered)`.
    pub fn checkpoint(&mut self, host: &mut impl Host) -> (u64, u64) {
        self.cut(host);
        self.installs(host, true);
        (self.ckpt.seq, self.ckpt.covered)
    }

    /// Applies the snapshot writer's reports on the cuts it holds: all
    /// of them, waiting, when `wait`; else those ready now.
    pub fn installs(&mut self, host: &mut impl Host, wait: bool) {
        while !self.in_flight.is_empty() {
            let Some(report) = host.installed(wait) else {
                return;
            };
            self.apply_install(host, report);
        }
    }

    /// Executes one step's effects: the first StartViewChange of an
    /// election starts its clock; journal records and sends are staged,
    /// the rest performed now, in order.
    fn perform(&mut self, host: &mut impl Host, effects: Vec<Effect>) {
        let starts_election = effects.iter().any(|e| {
            matches!(
                e,
                Effect::Send {
                    frame: Frame::StartViewChange { .. },
                    ..
                }
            )
        });
        if starts_election && self.election_started.is_none() {
            self.election_started = Some(host.now());
            self.elections.inc();
        }
        for effect in self.staged.stage(effects) {
            match effect {
                Effect::Checkpoint(payload) => {
                    self.ckpt.cut += 1;
                    let seq = self.ckpt.cut;
                    let (covered, covered_through) = (payload.covered, payload.covered_through);
                    self.in_flight.push_back(CkptState {
                        seq,
                        covered,
                        covered_through,
                        cut: seq,
                    });
                    host.cut(seq, payload);
                }
                // At once, so before the commit that writes any send of
                // the new view.
                Effect::RecordView(view) => {
                    host.record_view(view);
                    self.view_gauge.set(view as i64);
                    if let Some(started) = self.election_started.take() {
                        self.election_latency
                            .record(host.now().saturating_sub(started));
                    }
                }
                Effect::Event(event) => {
                    event.count(&self.site_obs);
                    host.record(event);
                }
                // Staged above.
                Effect::Journal(_) | Effect::Send { .. } => {}
            }
        }
    }

    /// Writes everything staged, in the order [`crate::commit`] plans:
    /// fan-out sends, the journal records, every other send — one write
    /// per file.
    fn write(&mut self, host: &mut impl Host) {
        if self.staged.is_empty() {
            return;
        }
        let started = host.now();
        let mut records = 0;
        for write in self.staged.plan() {
            records += write.records() as u64;
            match write {
                Write::Journal(msets) => {
                    let bytes = host.append(msets);
                    let (file, live) = host.journal_size();
                    self.ckpt_obs.journal(file, live);
                    if let Some(limit) = self.ckpt_bytes {
                        self.ckpt_bytes_since += bytes;
                        if self.ckpt_bytes_since >= limit {
                            self.ckpt_bytes_since = 0;
                            self.ckpt_due = true;
                        }
                    }
                }
                Write::Link { to, frames } => host.send(to, frames),
            }
        }
        self.commit_records.record(records);
        self.commit_latency
            .record(host.now().saturating_sub(started));
    }

    /// Cuts a checkpoint of the core and hands it to the writer. The
    /// image holds every step made so far and names the journal's last
    /// id as its cut, so what those steps staged is written first:
    /// `covered_through` is then the last record the image contains.
    fn cut(&mut self, host: &mut impl Host) {
        self.write(host);
        self.ckpt_due = false;
        let through = host.last_id();
        let effects = self.core.step(NodeEvent::Checkpoint { through });
        self.perform(host, effects);
    }

    /// Applies the writer's report on the oldest cut it holds. An
    /// install becomes the chain's newest snapshot and retires the
    /// journal prefix the *previous* snapshot covered (lag-by-one: the
    /// newest snapshot's own prefix stays live, so a fallback to
    /// snapshot N-1 still finds its suffix). The chain only moves
    /// forward: an install covering less than it changes nothing.
    fn apply_install(&mut self, host: &mut impl Host, report: Install) {
        let Some(cut) = self.in_flight.pop_front() else {
            return;
        };
        let (bytes, micros) = match report {
            Ok(installed) => installed,
            Err(detail) => {
                host.record(Event::CkptFailed {
                    seq: cut.seq,
                    detail,
                });
                return;
            }
        };
        if cut.covered < self.ckpt.covered {
            return;
        }
        self.ckpt_obs.installed(bytes, micros);
        host.record(Event::CkptInstall {
            seq: cut.seq,
            covered: cut.covered,
        });
        let previous_cut = self.ckpt.covered_through;
        self.ckpt = CkptState {
            cut: self.ckpt.cut,
            ..cut
        };
        if let Some(cut) = previous_cut {
            let retired = host.retire_through(cut);
            if retired > 0 {
                self.ckpt_obs.truncated(retired);
                let (bytes, live) = host.journal_size();
                self.ckpt_obs.journal(bytes, live);
                host.record(Event::CkptTruncate {
                    through: cut,
                    retired,
                });
            }
        }
    }
}
