//! The Figure-1 scenario served over the wire: a `most-server` instance
//! fronting the motel database, with two concurrent clients — a *driver*
//! advancing the world, and a *traveller* holding a continuous-query
//! subscription whose answer deltas the server pushes as the car moves.
//!
//! ```sh
//! cargo run --example server_demo
//! ```
//!
//! The server binds an ephemeral port on localhost; nothing external is
//! contacted.

use moving_objects::core::{Database, ShardedDb};
use moving_objects::server::client::Client;
use moving_objects::server::server::{Server, ServerConfig};
use moving_objects::spatial::{Point, Polygon, Velocity};
use moving_objects::workload::motels;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The world: 40 motels along the highway, one car driving east, and
    // the moving region C rigidly attached to the car (Section 1).
    let mut db = Database::new(2_000);
    let all = motels::highway_motels(40, 1_000.0, 4.0, 7);
    motels::populate(&mut db, &all);
    let car = db.insert_moving_object("cars", Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
    db.add_region("C", Polygon::rectangle(-5.0, -5.0, 5.0, 5.0));

    // The server runs on background threads over a one-shard engine;
    // `bind` returns immediately and the ephemeral port is read back from
    // the handle.
    let engine = Arc::new(ShardedDb::from_database(db));
    let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default())?;
    let addr = server.local_addr();
    println!("most-server listening on {addr}");

    // Client 1 — the traveller: registers the Figure-1 motel query as a
    // continuous query and subscribes to its incremental answer.
    let mut traveller = Client::connect(addr)?;
    let cq = traveller
        .register("RETRIEVE m, o WHERE m.PRICE <= 120 AND m <> o AND INSIDE(m, C, o)")?;
    let (tick, baseline) = traveller.subscribe(cq)?;
    println!(
        "traveller subscribed to cq #{cq} at t={tick}: {} (motel, vehicle) baseline rows",
        baseline.len()
    );

    // Client 2 — the driver: advances the clock from a second concurrent
    // session.  No position updates are sent; the display changes with
    // time alone (the MOST hallmark), and the server pushes the deltas.
    let mut driver = Client::connect(addr)?;
    for _ in 0..10 {
        let now = driver.advance(100)?;
        // Any round-trip fences previously-pushed frames (FIFO outbox).
        traveller.ping()?;
        for d in traveller.take_deltas() {
            let fmt = |rows: &[Vec<moving_objects::dbms::value::Value>]| -> Vec<String> {
                rows.iter()
                    .filter(|r| r[1] == moving_objects::dbms::value::Value::Id(car))
                    .map(|r| r[0].to_string())
                    .collect()
            };
            println!(
                "t={now:>4}  delta for cq #{}: entered {:?}, left {:?}",
                d.cq,
                fmt(&d.added),
                fmt(&d.removed)
            );
        }
    }

    // The driver takes an exit ramp: one explicit motion update, pushed to
    // the traveller as a delta like any other mutation.
    driver.update(&[moving_objects::core::UpdateOp::Motion {
        id: car,
        velocity: Velocity::new(0.0, 1.0),
    }])?;
    driver.advance(50)?;
    traveller.ping()?;
    let late = traveller.take_deltas();
    println!("after the exit-ramp update: {} more delta frame(s)", late.len());

    // A satisfactory motel was found — cancel and shut down.
    traveller.unsubscribe(cq)?;
    driver.cancel(cq)?;
    let stats = server.stats();
    println!(
        "served {} requests, pushed {} deltas, dropped {} — shutting down",
        stats.requests, stats.deltas, stats.dropped
    );
    server.shutdown();
    Ok(())
}
