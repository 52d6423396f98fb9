//! The campaign resilience policy, written once for both campaigns.
//!
//! Integrated fault simulation and Monte Carlo power grading each cut
//! their fault list into packs and hand them to [`run_journaled_packs`].
//! Per pack:
//!
//! * **journal hit** — a journaled result (tag word 0, then the pack's
//!   [`PackBody`]) is restored, and a journaled quarantine (tag word 1,
//!   then the panic message) is replayed, without running anything. A
//!   record that does not decode for this pack is recomputed, and the
//!   new record supersedes it;
//! * **otherwise** the caller's computation runs under
//!   [`par_map_indexed_caught`] — a panic is retried once, a second one
//!   quarantines the pack — and its result, or the fresh quarantine, is
//!   journaled, so a resumed campaign replays it instead of re-panicking.
//!
//! Results are journaled by the worker as each pack completes, so a kill
//! at any instant loses at most the packs still in flight. Events and
//! trace records are emitted afterwards, walking the packs in index
//! order on the calling thread, so they come out identical at any
//! thread count.

use std::time::{Duration, Instant};

use sfr_exec::{par_map_indexed_caught, Phase, Progress, ProgressEvent, TraceRecord};
use sfr_journal::{decode_str, encode_str, CampaignJournal, RecordKind};
use sfr_netlist::StuckAt;

/// Journal tag word of a pack's result.
const PACK_DONE: u64 = 0;
/// Journal tag word of a pack's quarantine.
const PACK_QUARANTINED: u64 = 1;

/// The journaled part of a pack's result: the words after the tag word.
pub trait PackBody: Sized {
    /// Encodes the result's journal body.
    fn encode_body(&self) -> Vec<u64>;

    /// Decodes a body journaled for `pack`; `None` when the words are not
    /// a valid result for that pack (it is then recomputed).
    fn decode_body(words: &[u64], pack: &[StuckAt]) -> Option<Self>;
}

/// Runs `packs` under the campaign resilience policy (see the module
/// docs), journaling under `kind`, on up to `threads` workers.
///
/// Emits [`ProgressEvent::WorkPlanned`] first. Then, in pack order, it
/// emits [`ProgressEvent::PackRestored`] before handing a restored value
/// to `account`, hands a computed value to `account` with the wall time
/// its computation took on the worker (`None` means restored), and
/// reports a quarantine itself: [`ProgressEvent::PackQuarantined`] plus,
/// when the sink wants records, [`TraceRecord::Quarantined`].
///
/// Returns one slot per pack, in pack order: its value, or the
/// quarantining panic message.
pub fn run_journaled_packs<T: PackBody + Send>(
    kind: RecordKind,
    packs: &[&[StuckAt]],
    threads: usize,
    progress: &dyn Progress,
    journal: Option<&CampaignJournal>,
    compute: impl Fn(&[StuckAt]) -> T + Sync,
    mut account: impl FnMut(usize, &T, Option<Duration>),
) -> Vec<Result<T, String>> {
    let phase = match kind {
        RecordKind::FaultSim => Phase::FaultSim,
        RecordKind::GradePack => Phase::Grade,
    };
    progress.event(ProgressEvent::WorkPlanned {
        phase,
        items: packs.len(),
    });
    // Each worker yields the value with its compute time (`None` when
    // restored), or the message of a journaled quarantine.
    let slots = par_map_indexed_caught(threads, packs.len(), |i| {
        let pack = packs[i];
        let journaled = journal.and_then(|j| j.get(kind, i as u64));
        if let Some(found) = journaled.and_then(|words| decode_record(&words, pack)) {
            return found.map(|value| (value, None));
        }
        let started = Instant::now();
        let value = compute(pack);
        let elapsed = started.elapsed();
        if let Some(j) = journal {
            let mut words = vec![PACK_DONE];
            words.extend(value.encode_body());
            j.record(kind, i as u64, &words);
        }
        Ok((value, Some(elapsed)))
    });

    let tracing = progress.wants_records();
    let mut out = Vec::with_capacity(packs.len());
    for (i, slot) in slots.into_iter().enumerate() {
        let message = match slot {
            Ok(Ok((value, elapsed))) => {
                if elapsed.is_none() {
                    progress.event(ProgressEvent::PackRestored {
                        phase,
                        faults: packs[i].len(),
                    });
                }
                account(i, &value, elapsed);
                out.push(Ok(value));
                continue;
            }
            Ok(Err(replayed)) => replayed,
            Err(panic) => {
                if let Some(j) = journal {
                    let mut words = vec![PACK_QUARANTINED];
                    words.extend(encode_str(&panic.message));
                    j.record(kind, i as u64, &words);
                }
                panic.message
            }
        };
        progress.event(ProgressEvent::PackQuarantined {
            faults: packs[i].len(),
        });
        if tracing {
            progress.record(&TraceRecord::Quarantined {
                kind,
                index: i,
                fault_ids: packs[i].iter().map(StuckAt::to_string).collect(),
                message: message.clone(),
                journal_key: journal.map(|_| kind.key(i as u64)),
            });
        }
        out.push(Err(message));
    }
    out
}

/// A journal record of `pack`: its restored value, its quarantine
/// message, or `None` when the record does not decode for `pack`.
fn decode_record<T: PackBody>(words: &[u64], pack: &[StuckAt]) -> Option<Result<T, String>> {
    match words.split_first()? {
        (&PACK_DONE, body) => T::decode_body(body, pack).map(Ok),
        (&PACK_QUARANTINED, text) => decode_str(text).map(|(message, _)| Err(message)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfr_exec::Counters;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A pack's value, journaled as one word.
    #[derive(Debug, PartialEq)]
    struct Sum(u64);

    impl PackBody for Sum {
        fn encode_body(&self) -> Vec<u64> {
            vec![self.0]
        }

        fn decode_body(words: &[u64], _pack: &[StuckAt]) -> Option<Self> {
            match words {
                [sum] => Some(Sum(*sum)),
                _ => None,
            }
        }
    }

    fn faults() -> Vec<StuckAt> {
        crate::fixtures::toy_system().controller_faults()[..6].to_vec()
    }

    fn journal(name: &str) -> (std::path::PathBuf, CampaignJournal) {
        let mut path = std::env::temp_dir();
        path.push(format!("sfr-packs-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let j = CampaignJournal::create(&path, 7, "packs").expect("creates");
        (path, j)
    }

    fn quarantine_record(message: &str) -> Vec<u64> {
        let mut words = vec![PACK_QUARANTINED];
        words.extend(encode_str(message));
        words
    }

    #[test]
    fn records_decode_by_tag_and_reject_bad_shapes() {
        let pack = &faults()[..1];
        let restored = decode_record::<Sum>(&[PACK_DONE, 40], pack);
        assert_eq!(restored, Some(Ok(Sum(40))));
        let replayed = decode_record::<Sum>(&quarantine_record("lane panic"), pack);
        assert_eq!(replayed, Some(Err("lane panic".to_string())));
        // An unknown tag, an undecodable body, a truncated message and
        // an empty record all force recomputation.
        assert_eq!(decode_record::<Sum>(&[2, 40], pack), None);
        assert_eq!(decode_record::<Sum>(&[PACK_DONE, 40, 41], pack), None);
        let truncated = quarantine_record("lane panic");
        assert_eq!(
            decode_record::<Sum>(&truncated[..truncated.len() - 1], pack),
            None
        );
        assert_eq!(decode_record::<Sum>(&[], pack), None);
    }

    #[test]
    fn journaled_packs_are_restored_or_replayed_without_running() {
        let faults = faults();
        let packs: Vec<&[StuckAt]> = faults.chunks(2).collect();
        let (path, j) = journal("replay");
        j.record(RecordKind::GradePack, 0, &[PACK_DONE, 40]);
        j.record(RecordKind::GradePack, 1, &quarantine_record("lane panic"));
        let before = std::fs::read(&path).expect("journal on disk");
        // The first run computes and journals pack 2 only; the second,
        // on more threads, runs nothing.
        for (threads, computed) in [(1, 1), (3, 0)] {
            let runs = AtomicUsize::new(0);
            let counters = Counters::new();
            let mut seen = Vec::new();
            let slots = run_journaled_packs(
                RecordKind::GradePack,
                &packs,
                threads,
                &counters,
                Some(&j),
                |pack| {
                    runs.fetch_add(1, Ordering::SeqCst);
                    Sum(pack.len() as u64)
                },
                |i, value: &Sum, elapsed| seen.push((i, value.0, elapsed.is_none())),
            );
            assert_eq!(runs.into_inner(), computed, "threads = {threads}");
            assert_eq!(slots, [Ok(Sum(40)), Err("lane panic".into()), Ok(Sum(2))]);
            assert_eq!(seen, [(0, 40, true), (2, 2, computed == 0)]);
            let snap = counters.snapshot();
            assert_eq!(snap.packs_restored, 2 - computed);
            assert_eq!((snap.packs_quarantined, snap.faults_quarantined), (1, 2));
        }
        let after = std::fs::read(&path).expect("journal on disk");
        assert!(
            after.starts_with(&before),
            "journaled records are left as they were"
        );
        assert_eq!(j.get(RecordKind::GradePack, 2), Some(vec![PACK_DONE, 2]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_record_that_does_not_decode_is_recomputed_and_superseded() {
        let faults = faults();
        let packs: Vec<&[StuckAt]> = vec![&faults];
        let (path, mut j) = journal("supersede");
        j.record(RecordKind::GradePack, 0, &[2, 40]);
        // The first run recomputes the pack and journals its value over
        // the undecodable record; a second run, on the reopened journal,
        // restores it.
        for computed in [1, 0] {
            let runs = AtomicUsize::new(0);
            let counters = Counters::new();
            let slots = run_journaled_packs(
                RecordKind::GradePack,
                &packs,
                1,
                &counters,
                Some(&j),
                |pack| {
                    runs.fetch_add(1, Ordering::SeqCst);
                    Sum(pack.len() as u64)
                },
                |_, _: &Sum, _| {},
            );
            assert_eq!(runs.into_inner(), computed);
            assert_eq!(slots, [Ok(Sum(6))]);
            assert_eq!(counters.snapshot().packs_quarantined, 0);
            assert_eq!(j.get(RecordKind::GradePack, 0), Some(vec![PACK_DONE, 6]));
            j = CampaignJournal::open(&path).expect("reopens");
            assert_eq!(j.get(RecordKind::GradePack, 0), Some(vec![PACK_DONE, 6]));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_pack_that_panics_twice_is_quarantined_and_journaled() {
        let faults = faults();
        let packs: Vec<&[StuckAt]> = faults.chunks(4).collect();
        let (path, j) = journal("panic");
        let attempts = AtomicUsize::new(0);
        let counters = Counters::new();
        let slots = run_journaled_packs(
            RecordKind::FaultSim,
            &packs,
            2,
            &counters,
            Some(&j),
            |pack| {
                if pack.len() == 4 {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    panic!("chunk misbehaved");
                }
                Sum(9)
            },
            |_, _: &Sum, _| {},
        );
        assert_eq!(attempts.into_inner(), 2, "one retry before quarantine");
        assert_eq!(slots, [Err("chunk misbehaved".into()), Ok(Sum(9))]);
        assert_eq!(counters.snapshot().faults_quarantined, 4);
        assert_eq!(
            j.get(RecordKind::FaultSim, 0),
            Some(quarantine_record("chunk misbehaved"))
        );
        assert_eq!(j.get(RecordKind::FaultSim, 1), Some(vec![PACK_DONE, 9]));
        let _ = std::fs::remove_file(&path);
    }
}
