//! Refresh evaluation for the continuous-query engine.
//!
//! After dependency filtering (`Database::after_updates`), the queries
//! that must re-evaluate are independent of one another: each reads the
//! database immutably and produces a fresh [`Answer`].  This module
//! evaluates them one after another, each under its own `catch_unwind`;
//! merging back into the registry stays in the caller (it mutates shared
//! state).

use crate::database::{Database, PlanState};
use crate::error::{CoreError, CoreResult};
use most_ftl::answer::Answer;
use most_ftl::Query;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Re-evaluates every query in `queries` against the current database
/// state.  `plans` travels in parallel to `queries`: a `Some` entry
/// evaluates through its compiled plan (replaying and refilling the
/// per-atom cache), a `None` entry interprets the AST.  Returns, per query
/// and in input order, its id, the evaluation result, the evaluation's
/// wall-clock cost in nanoseconds, and the plan state handed back to the
/// caller.
pub(crate) fn evaluate_refresh_set(
    db: &Database,
    queries: &[(u64, Query)],
    mut plans: Vec<Option<PlanState>>,
) -> Vec<(u64, CoreResult<Answer>, u64, Option<PlanState>)> {
    debug_assert_eq!(plans.len(), queries.len());
    plans.resize_with(queries.len(), || None);
    queries
        .iter()
        .zip(plans)
        .map(|((id, q), mut plan)| {
            let (result, nanos) = timed_eval(db, q, &mut plan);
            most_obs::observe("refresh.query_nanos", nanos);
            (*id, result, nanos, plan)
        })
        .collect()
}

fn timed_eval(db: &Database, q: &Query, plan: &mut Option<PlanState>) -> (CoreResult<Answer>, u64) {
    let start = std::time::Instant::now();
    // Evaluation runs arbitrary FTL over arbitrary trajectories; a panic in
    // one query must fail only that query's refresh, not abort the whole
    // pass.  The `AssertUnwindSafe` is justified: on panic the plan state is
    // discarded below (its per-atom cache may be half-written), and `db` is
    // only read.
    let result = match catch_unwind(AssertUnwindSafe(|| match plan {
        Some(state) => db.evaluate_global_with_plan(state),
        None => db.evaluate_global(q),
    })) {
        Ok(result) => result,
        Err(payload) => {
            most_obs::inc("refresh.worker_panics");
            // The compiled plan's cache may be inconsistent mid-panic;
            // drop it so the next refresh recompiles from the AST.
            *plan = None;
            Err(CoreError::EvalPanic(panic_message(&payload)))
        }
    };
    (result, start.elapsed().as_nanos() as u64)
}

/// Renders a `catch_unwind` payload: `&str` and `String` payloads
/// (everything `panic!` produces in practice) verbatim, anything else
/// generically.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use most_spatial::{Point, Polygon, Velocity};

    fn db_with_cars(n: u64) -> Database {
        let mut db = Database::new(300);
        for i in 0..n {
            db.insert_moving_object(
                "cars",
                Point::new(i as f64 * 5.0, 0.0),
                Velocity::new(1.0, 0.0),
            );
        }
        db.add_region("P", Polygon::rectangle(100.0, -10.0, 150.0, 10.0));
        db
    }

    #[test]
    fn compiled_plans_match_interpreter() {
        let db = db_with_cars(40);
        let queries: Vec<(u64, Query)> = (0..8)
            .map(|i| {
                let q = if i % 2 == 0 {
                    Query::parse("RETRIEVE o WHERE Eventually within 200 INSIDE(o, P)")
                } else {
                    Query::parse("RETRIEVE o WHERE OUTSIDE(o, P)")
                };
                (i, q.unwrap())
            })
            .collect();
        let interpreted = evaluate_refresh_set(&db, &queries, vec![None; queries.len()]);
        let plans = queries
            .iter()
            .map(|(_, q)| Some(PlanState::compile(q)))
            .collect();
        let compiled = evaluate_refresh_set(&db, &queries, plans);
        for ((sid, sres, _, _), (pid, pres, _, plan)) in interpreted.iter().zip(&compiled) {
            assert_eq!(sid, pid);
            assert_eq!(
                sres.as_ref().unwrap(),
                pres.as_ref().unwrap(),
                "compiled plans must reproduce interpreter answers"
            );
            assert!(plan.is_some(), "plan state must come back to the caller");
        }
    }

    #[test]
    fn empty_set_is_fine() {
        let db = db_with_cars(1);
        assert!(evaluate_refresh_set(&db, &[], Vec::new()).is_empty());
    }
}
