//! Parallel execution of the preliminary rankers.
//!
//! The paper runs the five feature-selection approaches in parallel, which
//! is why WEFR's runtime tracks the slowest single approach (Exp#4,
//! Table VIII). Rankers run on scoped worker threads (`std::thread::scope`),
//! one per ranker by default, or on a bounded pool via
//! [`run_rankers_with_threads`].

use crate::error::WefrError;
use crate::ranker::{bin_if, FeatureRanker, RankInput};
use crate::ranking::FeatureRanking;
use smart_stats::FeatureMatrix;

/// Run every ranker over the same data, in parallel, returning the named
/// rankings in input order.
///
/// Equivalent to [`run_rankers_with_threads`] with one worker per ranker.
///
/// # Errors
///
/// Returns [`WefrError::RankerFailed`] for the first ranker (in input
/// order) that failed, and [`WefrError::InvalidInput`] when no rankers are
/// given.
pub fn run_rankers(
    rankers: &[Box<dyn FeatureRanker>],
    data: &FeatureMatrix,
    labels: &[bool],
) -> Result<Vec<(String, FeatureRanking)>, WefrError> {
    run_rankers_with_threads(rankers, data, labels, rankers.len().max(1))
}

/// Run every ranker over the same data on at most `max_threads` scoped
/// worker threads, returning the named rankings in input order.
///
/// The input is prepared once before the fan-out: when any ranker
/// [uses the binned matrix](FeatureRanker::uses_binned), `data` is binned
/// here, once, and shared by every such ranker.
///
/// Rankers are dealt to workers round-robin by index, so the assignment —
/// and therefore the result, which is ordered by ranker index regardless of
/// completion order — is independent of scheduling. Results are
/// bit-identical across `max_threads` values; the knob only trades latency
/// for parallelism.
///
/// # Errors
///
/// Returns [`WefrError::RankerFailed`] for the first ranker (in input
/// order) that failed, and [`WefrError::InvalidInput`] when no rankers are
/// given or `max_threads` is zero.
pub fn run_rankers_with_threads(
    rankers: &[Box<dyn FeatureRanker>],
    data: &FeatureMatrix,
    labels: &[bool],
    max_threads: usize,
) -> Result<Vec<(String, FeatureRanking)>, WefrError> {
    if rankers.is_empty() {
        return Err(WefrError::InvalidInput {
            message: "no rankers configured".to_string(),
        });
    }
    if max_threads == 0 {
        return Err(WefrError::InvalidInput {
            message: "max_threads must be at least 1".to_string(),
        });
    }
    let binned = bin_if(rankers.iter().any(|r| r.uses_binned()), data)?;
    let input = RankInput {
        data,
        labels,
        binned: binned.as_ref(),
    };
    let input = &input;

    let workers = max_threads.min(rankers.len());
    let fanout = telemetry::span!("rankers", total = rankers.len(), workers = workers);
    let fanout_id = fanout.id();
    let results: Vec<Result<FeatureRanking, WefrError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                scope.spawn(move || {
                    rankers
                        .iter()
                        .enumerate()
                        .skip(worker)
                        .step_by(workers)
                        .map(|(index, ranker)| {
                            let span = telemetry::span_child_of(fanout_id, ranker.name());
                            let result = ranker.rank_prepared(input);
                            span.record("ok", result.is_ok());
                            telemetry::counter_add("rankers.completed", 1);
                            (index, result)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut indexed: Vec<(usize, Result<FeatureRanking, WefrError>)> = handles
            .into_iter()
            // lint:allow(panic-free) a worker panic is already a bug; join
            // can only fail by propagating it, and re-raising here keeps the
            // scoped-thread invariant visible instead of losing results
            .flat_map(|h| h.join().expect("ranker thread must not panic"))
            .collect();
        indexed.sort_by_key(|(index, _)| *index);
        indexed.into_iter().map(|(_, result)| result).collect()
    });

    rankers
        .iter()
        .zip(results)
        .map(|(ranker, result)| {
            result
                .map(|ranking| (ranker.name().to_string(), ranking))
                .map_err(|e| {
                    telemetry::error!(
                        "rankers",
                        format!("ranker {} failed", ranker.name()),
                        ranker = ranker.name(),
                        detail = e.to_string(),
                    );
                    WefrError::RankerFailed {
                        ranker: ranker.name(),
                        message: e.to_string(),
                    }
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rankers::default_rankers;

    fn data() -> (FeatureMatrix, Vec<bool>) {
        let labels: Vec<bool> = (0..60).map(|i| i % 3 == 0).collect();
        let signal: Vec<f64> = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| if l { 10.0 } else { 0.0 } + (i % 7) as f64 * 0.1)
            .collect();
        let noise: Vec<f64> = (0..60).map(|i| ((i * 31) % 17) as f64).collect();
        (
            FeatureMatrix::from_columns(vec!["signal".into(), "noise".into()], vec![signal, noise])
                .unwrap(),
            labels,
        )
    }

    #[test]
    fn runs_all_five_in_parallel() {
        let (m, l) = data();
        let rankers = default_rankers(1);
        let results = run_rankers(&rankers, &m, &l).unwrap();
        assert_eq!(results.len(), 5);
        for (name, ranking) in &results {
            assert_eq!(
                ranking.top_names(1),
                vec!["signal"],
                "ranker {name} missed the signal"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let (m, l) = data();
        let rankers = default_rankers(2);
        let parallel = run_rankers(&rankers, &m, &l).unwrap();
        for (ranker, (name, ranking)) in rankers.iter().zip(&parallel) {
            assert_eq!(ranker.name(), name);
            assert_eq!(&ranker.rank(&m, &l).unwrap(), ranking);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (m, l) = data();
        let rankers = default_rankers(4);
        let baseline = run_rankers_with_threads(&rankers, &m, &l, 1).unwrap();
        for threads in [2, 3, 5, 8] {
            let run = run_rankers_with_threads(&rankers, &m, &l, threads).unwrap();
            assert_eq!(run, baseline, "results diverged at {threads} threads");
        }
    }

    #[test]
    fn failure_is_attributed_to_the_ranker() {
        let (m, _) = data();
        let one_class = vec![true; m.n_rows()];
        let rankers = default_rankers(3);
        let err = run_rankers(&rankers, &m, &one_class).unwrap_err();
        assert!(matches!(
            err,
            WefrError::RankerFailed {
                ranker: "pearson",
                ..
            }
        ));
    }

    #[test]
    fn empty_ranker_list_is_invalid() {
        let (m, l) = data();
        assert!(run_rankers(&[], &m, &l).is_err());
        assert!(run_rankers_with_threads(&default_rankers(1), &m, &l, 0).is_err());
    }
}
