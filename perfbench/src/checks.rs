//! Correctness checks on every run. A session that returned an error or
//! failed a check counts all its steps as failed; a failed run-level check
//! fails every step of the run.

use crate::replay::Replay;
use crate::workloads::{Scale, SessionRecord, Workload, EPOCHS};

/// Why one session's output is wrong (empty when it is right). At bench
/// scale every vertex has enough partition-local neighbors for
/// locality-aware sampling to pull no remote feature; the tiny test graph
/// does not, so there the engine's remote bytes need only match the
/// replay's.
pub fn check_session(
    workload: &Workload,
    scale: Scale,
    session: &SessionRecord,
    replay: &Replay,
) -> Vec<String> {
    let mut bad = Vec::new();
    if let Some(e) = &session.error {
        bad.push(format!("session error: {e}"));
        return bad;
    }
    if session.epochs.len() != EPOCHS {
        bad.push(format!(
            "session ran {} of {EPOCHS} epochs",
            session.epochs.len()
        ));
    }
    let replicas = workload.replicas() as u64;
    for (e, ep) in session.epochs.iter().enumerate() {
        if !ep.loss.is_finite() {
            bad.push(format!("epoch {e}: loss {} is not finite", ep.loss));
        }
        if let Some(n) = workload.super_batch() {
            if ep.max_gap >= 2 * n as u64 {
                bad.push(format!(
                    "epoch {e}: embedding gap {} breaks the < 2n = {} bound",
                    ep.max_gap,
                    2 * n
                ));
            }
        }
        let rows = ep.cache_hits + ep.cache_misses;
        match replay.src_rows.get(e) {
            Some(&want) if want == rows => {}
            want => bad.push(format!(
                "epoch {e}: cache hits + misses = {rows}, replay sampled {want:?} source rows"
            )),
        }
        match replay.losses.get(e) {
            Some(want) if want.to_bits() == ep.loss.to_bits() => {}
            want => bad.push(format!(
                "epoch {e}: engine loss {} is not bit-equal to the sequential replay's {want:?}",
                ep.loss
            )),
        }
        if replicas > 1 {
            // Ring all-reduce: 2(R-1)/R of the model per replica per step.
            let per_replica =
                2.0 * (replicas - 1) as f64 * session.model_bytes as f64 / replicas as f64;
            let want = ep.steps as f64 * replicas as f64 * per_replica;
            if (ep.allreduce_bytes as f64 - want).abs() > 0.5 {
                bad.push(format!(
                    "epoch {e}: all-reduce moved {} B, the ring law gives {want}",
                    ep.allreduce_bytes
                ));
            }
            if replay.remote_bytes.get(e) != Some(&ep.remote_bytes) {
                bad.push(format!(
                    "epoch {e}: {} remote feature bytes, replay counted {:?}",
                    ep.remote_bytes,
                    replay.remote_bytes.get(e)
                ));
            }
            if scale == Scale::Bench && ep.remote_bytes != 0 {
                bad.push(format!(
                    "epoch {e}: {} remote feature bytes under locality-aware sampling",
                    ep.remote_bytes
                ));
            }
            if replay.remote_picks.get(e) != Some(&ep.remote_picks) {
                bad.push(format!(
                    "epoch {e}: {} remote picks, replay counted {:?}",
                    ep.remote_picks,
                    replay.remote_picks.get(e)
                ));
            }
        }
    }
    bad
}

/// Run-level checks: every session of one seed trains the same
/// trajectory.
pub fn check_run(sessions: &[SessionRecord]) -> Vec<String> {
    let trajectory =
        |s: &SessionRecord| -> Vec<u32> { s.epochs.iter().map(|e| e.loss.to_bits()).collect() };
    let mut bad = Vec::new();
    if let Some(first) = sessions.first() {
        for (i, s) in sessions.iter().enumerate().skip(1) {
            if s.error.is_none() && first.error.is_none() && trajectory(s) != trajectory(first) {
                bad.push(format!(
                    "session {i} trained a different loss trajectory than session 0"
                ));
            }
        }
    }
    bad
}

/// Attempted and failed steps: a session's steps fail with it; a run-level
/// failure fails them all.
pub fn tally(
    sessions: &[SessionRecord],
    session_failures: &[Vec<String>],
    run_failures: &[String],
) -> (u64, u64) {
    let attempted: u64 = sessions.iter().map(|s| s.planned_steps).sum();
    if !run_failures.is_empty() {
        return (attempted, attempted);
    }
    let failed = sessions
        .iter()
        .zip(session_failures)
        .filter(|(_, f)| !f.is_empty())
        .map(|(s, _)| s.planned_steps)
        .sum();
    (attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, EpochRecord};

    fn healthy() -> (SessionRecord, Replay) {
        let epochs: Vec<EpochRecord> = (0..EPOCHS)
            .map(|e| EpochRecord {
                loss: 1.0 / (e + 1) as f32,
                cache_hits: 10,
                cache_misses: 90,
                steps: 3,
                ..EpochRecord::default()
            })
            .collect();
        let replay = Replay {
            losses: epochs.iter().map(|e| e.loss).collect(),
            src_rows: vec![100; EPOCHS],
            ..Replay::default()
        };
        let session = SessionRecord {
            epochs,
            planned_steps: 3 * EPOCHS as u64,
            ..SessionRecord::default()
        };
        (session, replay)
    }

    #[test]
    fn a_healthy_session_passes() {
        let (s, r) = healthy();
        let w = by_name("orch-hot").unwrap();
        assert!(check_session(&w, Scale::Bench, &s, &r).is_empty());
    }

    #[test]
    fn a_nan_loss_fails_the_sessions_steps() {
        let w = by_name("orch-hot").unwrap();
        let (good, replay) = healthy();
        let (mut bad, _) = healthy();
        bad.epochs[EPOCHS - 1].loss = f32::NAN;
        let sessions = vec![good, bad];
        let failures: Vec<Vec<String>> = sessions
            .iter()
            .map(|s| check_session(&w, Scale::Bench, s, &replay))
            .collect();
        assert!(failures[0].is_empty());
        assert!(failures[1].iter().any(|f| f.contains("not finite")));
        let per_session = 3 * EPOCHS as u64;
        assert_eq!(
            tally(&sessions, &failures, &[]),
            (2 * per_session, per_session)
        );
        // A run-level failure fails every step.
        assert_eq!(
            tally(&sessions, &failures, &["x".into()]),
            (2 * per_session, 2 * per_session)
        );
    }

    #[test]
    fn broken_invariants_are_caught() {
        let w = by_name("orch-hot").unwrap();
        let (mut s, r) = healthy();
        s.epochs[0].max_gap = 4; // n = 2, so the bound is gap < 4
        s.epochs[1].cache_misses += 1;
        s.epochs[2].loss = f32::from_bits(s.epochs[2].loss.to_bits() + 1);
        let bad = check_session(&w, Scale::Bench, &s, &r);
        assert_eq!(bad.len(), 3, "{bad:?}");

        let w = by_name("replicated-r2").unwrap();
        let (mut s, mut r) = healthy();
        s.model_bytes = 1000;
        r.remote_picks = vec![0; EPOCHS];
        r.remote_bytes = vec![0; EPOCHS];
        for e in &mut s.epochs {
            e.allreduce_bytes = 3 * 2 * 1000; // steps × R × 2(R-1)/R × model
        }
        assert!(check_session(&w, Scale::Bench, &s, &r).is_empty());
        s.epochs[0].allreduce_bytes += 1;
        s.epochs[1].remote_bytes = 8;
        // The all-reduce law, the replay mismatch and the locality bound.
        assert_eq!(check_session(&w, Scale::Bench, &s, &r).len(), 3);
        // On the tiny graph remote pulls are legitimate when the replay
        // counts the same.
        r.remote_bytes[1] = 8;
        assert_eq!(check_session(&w, Scale::Tiny, &s, &r).len(), 1);
    }

    #[test]
    fn an_erroring_session_counts_as_failed_and_diverging_sessions_fail_the_run() {
        let (a, _) = healthy();
        let (mut b, _) = healthy();
        b.epochs[EPOCHS - 1].loss = 0.0;
        assert_eq!(check_run(&[a, b]).len(), 1);
        let w = by_name("exact-io").unwrap();
        let (mut s, r) = healthy();
        s.error = Some("stalled".into());
        assert!(!check_session(&w, Scale::Bench, &s, &r).is_empty());
    }
}
