//! A fleet dashboard: concurrent readers over a shared MOST database,
//! nearest-object lookups (the paper's opening "nearest hospital" query),
//! and `EXPLAIN`-style traces of the appendix algorithm.
//!
//! ```sh
//! cargo run --example fleet_dashboard
//! ```

use moving_objects::core::{Database, EpochDb};
use moving_objects::ftl::{explain_query, Query};
use moving_objects::spatial::{Point, Polygon, Velocity};
use moving_objects::workload::cars::CarScenario;
use std::thread;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new(2_000);
    db.add_region("Depot", Polygon::rectangle(-50.0, -50.0, 50.0, 50.0));

    let scenario = CarScenario { count: 30, ..CarScenario::small(99) };
    let plans = scenario.generate();
    let ids = scenario.populate(&mut db, &plans);
    let hospital =
        db.insert_moving_object("hospitals", Point::new(120.0, 80.0), Velocity::zero());

    // EXPLAIN: relation sizes per subformula, bottom-up (appendix order).
    let q = Query::parse(
        "RETRIEVE o WHERE o.PRICE <= 150 AND Eventually within 500 (INSIDE(o, Depot) AND Always for 30 INSIDE(o, Depot))",
    )?;
    let (answer, trace) = explain_query(&db.current_context(), &q)?;
    println!("EXPLAIN {q}\n");
    println!("{:<72} {:>5} {:>6} {:>8}", "subformula (bottom-up)", "rows", "spans", "ticks");
    for node in &trace {
        println!(
            "{:<72} {:>5} {:>6} {:>8}",
            format!("{}{}", "  ".repeat(node.depth), truncate(&node.formula, 70 - 2 * node.depth)),
            node.rows,
            node.spans,
            node.ticks
        );
    }
    println!("\nanswer: {} vehicles\n", answer.len());

    // Nearest-object: "How far is the car ... from the nearest hospital?"
    let car = ids[0];
    if let Some((h, d)) = db.nearest_object(car, Some("hospitals"))? {
        println!("vehicle #{car} is {d:.1} from the nearest hospital (#{h})");
    }
    let _ = hospital;

    // Shared access: four dashboard widgets query pinned epochs
    // concurrently while a sensor thread publishes motion updates.
    let shared = EpochDb::new(db);
    let widgets: Vec<_> = (0..4)
        .map(|w| {
            let shared = shared.clone();
            thread::spawn(move || {
                let q = Query::parse("RETRIEVE o WHERE Eventually within 300 INSIDE(o, Depot)")
                    .expect("parses");
                let mut last = 0;
                for _ in 0..20 {
                    let pin = shared.pin();
                    let answer = pin.instantaneous_readonly(&q).expect("evaluates");
                    last = answer.at_tick(pin.now()).len();
                }
                (w, last)
            })
        })
        .collect();
    let feed = {
        let shared = shared.clone();
        let ids = ids.clone();
        thread::spawn(move || {
            for (i, id) in ids.iter().cycle().take(40).enumerate() {
                shared.commit(|d| d.advance_clock(1));
                let velocity = Velocity::new((i % 5) as f64 * 0.3 - 0.6, 0.4);
                shared.commit(|d| d.update_motion(*id, velocity)).expect("updates");
            }
        })
    };
    feed.join().expect("sensor feed");
    for w in widgets {
        let (i, n) = w.join().expect("widget");
        println!("widget {i}: {n} vehicles headed for the depot");
    }
    println!("clock now at t={}", shared.pin().now());
    Ok(())
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_owned()
    } else {
        let cut: String = s.chars().take(n.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}
