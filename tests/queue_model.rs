//! Model-based property test: the file-backed stable queue behaves
//! exactly like the in-memory model under arbitrary command sequences —
//! including crash/reopen at arbitrary points, which must preserve the
//! set of unacknowledged entries.

use bytes::Bytes;
use proptest::prelude::*;

use esr::storage::stable_queue::{EntryId, FileQueue, MemQueue, StableQueue};

/// One command in the random script.
#[derive(Debug, Clone)]
enum Cmd {
    /// Enqueue a payload of the given byte.
    Enqueue(u8),
    /// Ack the i-th currently-pending entry (modulo pending count).
    AckNth(usize),
    /// Crash the file queue (drop + reopen). The in-memory model keeps
    /// running — stability means they still agree afterwards.
    CrashReopen,
    /// Compact the file log.
    Compact,
}

fn arb_cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        4 => any::<u8>().prop_map(Cmd::Enqueue),
        3 => (0usize..8).prop_map(Cmd::AckNth),
        1 => Just(Cmd::CrashReopen),
        1 => Just(Cmd::Compact),
    ]
}

fn pending_payloads(q: &dyn StableQueue) -> Vec<Vec<u8>> {
    q.pending(usize::MAX)
        .into_iter()
        .map(|(_, p)| p.to_vec())
        .collect()
}

fn nth_pending(q: &dyn StableQueue, i: usize) -> Option<EntryId> {
    let pending = q.pending(usize::MAX);
    if pending.is_empty() {
        None
    } else {
        Some(pending[i % pending.len()].0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn file_queue_matches_memory_model(cmds in prop::collection::vec(arb_cmd(), 0..60)) {
        let path = std::env::temp_dir().join(format!(
            "esr-qmodel-{}-{:?}.q",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut model = MemQueue::new();
        let mut real = FileQueue::open(&path).expect("open");
        for cmd in cmds {
            match cmd {
                Cmd::Enqueue(b) => {
                    let payload = Bytes::from(vec![b, b, b]);
                    model.enqueue(payload.clone());
                    real.enqueue(payload);
                }
                Cmd::AckNth(i) => {
                    // Same position in both queues (their pending lists
                    // are kept identical by induction).
                    if let (Some(m), Some(r)) = (nth_pending(&model, i), nth_pending(&real, i)) {
                        prop_assert!(model.ack(m));
                        prop_assert!(real.ack(r));
                    }
                }
                Cmd::CrashReopen => {
                    drop(real);
                    real = FileQueue::open(&path).expect("reopen");
                }
                Cmd::Compact => {
                    real.compact().expect("compact");
                }
            }
            prop_assert_eq!(
                pending_payloads(&model),
                pending_payloads(&real),
                "divergence after a command"
            );
            prop_assert_eq!(model.len(), real.len());
        }
        let _ = std::fs::remove_file(&path);
    }
}
