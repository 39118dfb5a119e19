//! Differential lock-down of the ladder queue against the binary heap.
//!
//! [`EventQueue`] promises one total order — `(time, seq)`, FIFO at
//! equal instants — regardless of backend. These properties push
//! adversarial schedules through both backends and require the popped
//! `(time, payload)` sequences to be *identical*, which pins the
//! FIFO tie-breaks as well (payloads are numbered in schedule order).
//!
//! Schedule shapes target the ladder's three tiers specifically:
//! uniform spreads (rung routing), tight clusters (bucket refinement),
//! far-future spikes (the unsorted top tier and its re-spread), and
//! same-tick bursts (sort stability under heavy key ties). A final
//! property interleaves scheduling with draining, the pattern the
//! simulation engine actually exercises.

use grid3_simkit::engine::EventQueue;
use grid3_simkit::time::SimTime;
use proptest::prelude::*;

/// Schedule `times` (µs offsets) into both backends, in order, and
/// require identical pop sequences.
fn assert_backends_agree(times: &[u64]) -> Result<(), TestCaseError> {
    let mut ladder: EventQueue<usize> = EventQueue::new();
    let mut heap: EventQueue<usize> = EventQueue::with_heap();
    prop_assert_eq!(ladder.backend_name(), "ladder");
    prop_assert_eq!(heap.backend_name(), "heap");
    for (i, &t) in times.iter().enumerate() {
        ladder.schedule_at(SimTime::from_micros(t), i);
        heap.schedule_at(SimTime::from_micros(t), i);
    }
    let mut last = SimTime::EPOCH;
    loop {
        let a = ladder.pop();
        let b = heap.pop();
        prop_assert_eq!(a, b, "backends diverged");
        let Some((t, _)) = a else { break };
        prop_assert!(t >= last, "time went backwards");
        last = t;
    }
    prop_assert_eq!(ladder.processed(), times.len() as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn uniform_schedules_agree(times in proptest::collection::vec(0u64..100_000_000, 1..400)) {
        assert_backends_agree(&times)?;
    }

    /// Times drawn from a handful of tight clusters — consecutive
    /// events land in the same ladder bucket and force recursive
    /// refinement.
    #[test]
    fn clustered_schedules_agree(
        centers in proptest::collection::vec(0u64..50, 2..6),
        picks in proptest::collection::vec((0u64..6, 0u64..200), 1..300),
    ) {
        let times: Vec<u64> = picks
            .iter()
            .map(|&(c, off)| centers[c as usize % centers.len()] * 1_000_000 + off)
            .collect();
        assert_backends_agree(&times)?;
    }

    /// Mostly-near times with occasional far-future spikes that land in
    /// the unsorted top tier and have to survive a re-spread.
    #[test]
    fn far_future_schedules_agree(
        picks in proptest::collection::vec((0u64..10, 0u64..10_000), 1..300),
    ) {
        let times: Vec<u64> = picks
            .iter()
            .map(|&(lane, off)| match lane {
                8 => 1_000_000_000 + off * 50,
                9 => 5_000_000_000 + off % 100,
                _ => off,
            })
            .collect();
        assert_backends_agree(&times)?;
    }

    /// Many events on very few distinct instants: heavy `time` ties
    /// whose order must come purely from the schedule sequence.
    #[test]
    fn same_tick_bursts_agree(ticks in proptest::collection::vec(0u64..4, 1..500)) {
        let times: Vec<u64> = ticks.iter().map(|&t| t * 1_000).collect();
        assert_backends_agree(&times)?;
    }

    /// Drain both queues while scheduling new work mid-drain — the shape
    /// the simulation engine produces (every handled event may schedule
    /// follow-ups at `now + delay`). The follow-up times derive from the
    /// *popped* payload, so any ordering divergence compounds and trips
    /// the comparison.
    #[test]
    fn schedule_during_drain_agrees(
        seed_times in proptest::collection::vec(0u64..5_000, 1..50),
        delays in proptest::collection::vec(0u64..2_000_000, 0..150),
    ) {
        let mut ladder: EventQueue<usize> = EventQueue::new();
        let mut heap: EventQueue<usize> = EventQueue::with_heap();
        for (i, &t) in seed_times.iter().enumerate() {
            ladder.schedule_at(SimTime::from_micros(t), i);
            heap.schedule_at(SimTime::from_micros(t), i);
        }
        let mut next_payload = seed_times.len();
        let mut di = 0;
        loop {
            let a = ladder.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b, "backends diverged mid-drain");
            let Some((t, payload)) = a else { break };
            if di < delays.len() {
                // Deterministic but payload-dependent follow-up offset.
                let offset = delays[di].wrapping_add(payload as u64 * 13) % 2_000_000;
                let at = SimTime::from_micros(t.as_micros() + offset);
                ladder.schedule_at(at, next_payload);
                heap.schedule_at(at, next_payload);
                next_payload += 1;
                di += 1;
            }
        }
        prop_assert_eq!(ladder.processed(), heap.processed());
        prop_assert_eq!(ladder.processed(), (seed_times.len() + di) as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Snapshot support: the ladder queue's full refinement state —
    /// rung boundaries, bucket splits, the sorted bottom tier, and the
    /// mid-drain cursor — must survive a serde round trip. Schedule a
    /// clustered workload (the shape that forces recursive rung
    /// refinement), drain part of it so the queue is caught mid-rung,
    /// round-trip through the snapshot's binary codec, and require the
    /// remaining pop sequence — including follow-ups scheduled *after*
    /// the round trip — to match the never-serialized original exactly.
    #[test]
    fn ladder_serde_round_trip_mid_refinement_pops_identically(
        picks in proptest::collection::vec((0u64..6, 0u64..200), 1..300),
        drain_pct in 0u64..100,
        followups in proptest::collection::vec(0u64..2_000_000, 0..40),
    ) {
        let times: Vec<u64> = picks
            .iter()
            .map(|&(cluster, off)| cluster * 40_000_000 + off * 7)
            .collect();
        let mut original: EventQueue<usize> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            original.schedule_at(SimTime::from_micros(t), i);
        }
        let drain = (times.len() as u64 * drain_pct / 100) as usize;
        for _ in 0..drain {
            original.pop();
        }
        let mut restored: EventQueue<usize> =
            serde::binary::from_bytes(&serde::binary::to_bytes(&original))
                .expect("queue round-trips");
        prop_assert_eq!(restored.len(), original.len());
        prop_assert_eq!(restored.now(), original.now());
        prop_assert_eq!(restored.processed(), original.processed());
        // Post-round-trip scheduling lands in the restored rung
        // structure; it must behave exactly like the original's.
        let mut next_payload = times.len();
        let mut fi = 0;
        loop {
            let a = original.pop();
            let b = restored.pop();
            prop_assert_eq!(a, b, "restored ladder diverged");
            let Some((t, _)) = a else { break };
            if fi < followups.len() {
                let at = SimTime::from_micros(t.as_micros() + followups[fi]);
                original.schedule_at(at, next_payload);
                restored.schedule_at(at, next_payload);
                next_payload += 1;
                fi += 1;
            }
        }
        prop_assert_eq!(original.processed(), restored.processed());
    }
}
