//! Algorithm 1 against a brute-force reference model.
//!
//! The reference never sorts. It restates selection pairwise: a candidate
//! is selected iff the expected reclamation of every candidate that
//! *precedes* it sums to less than the target, and the selected pids come
//! out ordered by how many candidates precede them. "Precedes" is written
//! out from the documented ordering: more expendable class first, then the
//! configured posture, then the lower pid.

use m3_core::selection::{select_processes, Candidate, SortOrder};
use m3_os::Pid;
use m3_sim::clock::SimTime;
use m3_sim::trace::Criticality;
use proptest::prelude::*;

const ORDERS: [SortOrder; 4] = [
    SortOrder::NewestFirst,
    SortOrder::OldestFirst,
    SortOrder::LargestRss,
    SortOrder::LargestExpectedReclaim,
];

/// True iff `a` is signalled before `b` under `order`.
fn precedes(a: &Candidate, b: &Candidate, order: SortOrder) -> bool {
    let (ea, eb) = (a.crit.expendability(), b.crit.expendability());
    if ea != eb {
        return ea > eb;
    }
    match order {
        SortOrder::NewestFirst if a.spawned_at != b.spawned_at => a.spawned_at > b.spawned_at,
        SortOrder::OldestFirst if a.spawned_at != b.spawned_at => a.spawned_at < b.spawned_at,
        SortOrder::LargestRss if a.rss != b.rss => a.rss > b.rss,
        SortOrder::LargestExpectedReclaim if a.expected_reclaim != b.expected_reclaim => {
            a.expected_reclaim > b.expected_reclaim
        }
        _ => a.pid < b.pid,
    }
}

/// The O(n²) reference selection.
fn reference(cands: &[Candidate], order: SortOrder, target: u64) -> Vec<Pid> {
    let mut slots: Vec<Option<Pid>> = vec![None; cands.len()];
    for c in cands {
        let preds: Vec<&Candidate> = cands.iter().filter(|o| precedes(o, c, order)).collect();
        let before: u64 = preds.iter().map(|o| o.expected_reclaim).sum();
        if before < target {
            let slot = &mut slots[preds.len()];
            assert!(slot.is_none(), "precedes must be a strict total order");
            *slot = Some(c.pid);
        }
    }
    slots.into_iter().flatten().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn select_processes_matches_the_pairwise_reference(
        // Narrow ranges so spawn times, sizes and reclaim estimates collide
        // and the pid tie-break is exercised.
        raw in proptest::collection::vec((0u64..4, 0u64..4, 0u64..60, 0usize..3), 0..12),
        order_idx in 0usize..4,
        target in 0u64..300,
        pid_salt in 0u64..101,
    ) {
        // Distinct pids in an order unrelated to the input order.
        let cands: Vec<Candidate> = raw
            .iter()
            .enumerate()
            .map(|(i, &(spawn_s, rss, reclaim, crit))| Candidate {
                pid: (i as u64 * 37 + pid_salt) % 101 + 1,
                spawned_at: SimTime::from_secs(spawn_s),
                rss: rss * 100,
                expected_reclaim: reclaim,
                crit: Criticality::ALL[crit],
            })
            .collect();
        let order = ORDERS[order_idx];
        prop_assert_eq!(select_processes(&cands, order, target), reference(&cands, order, target));
        prop_assert!(select_processes(&cands, order, 0).is_empty());
        prop_assert!(reference(&cands, order, 0).is_empty());
    }
}
