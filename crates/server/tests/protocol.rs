//! Fuzz-style wire-protocol robustness: a session fed random mixtures of
//! valid, garbage, oversized, truncated and non-UTF-8 frames must answer
//! every line with exactly one structured frame and stay alive throughout.
//!
//! Randomness comes from the in-repo `most-testkit` RNG, so failures
//! reproduce from the printed seed.

use most_core::{Database, ShardedDb};
use most_dbms::value::Value;
use most_server::client::connect_with_retry;
use most_server::protocol::{decode_response, ErrorCode, FrameReader, Response};
use most_server::server::{Server, ServerConfig};
use most_spatial::{Point, Polygon, Velocity};
use most_testkit::rng::Rng;
use std::io::Write;
use std::sync::Arc;

const MAX_FRAME: usize = 256;

/// A one-car world as a one-shard engine.
fn tiny_db() -> Arc<ShardedDb> {
    let mut db = Database::new(1_000);
    let id = db.insert_moving_object("cars", Point::new(0.0, 0.0), Velocity::new(1.0, 0.0));
    db.set_static(id, "PRICE", Value::from(80.0)).unwrap();
    db.add_region("P", Polygon::rectangle(-10.0, -10.0, 10.0, 10.0));
    Arc::new(ShardedDb::from_database(db))
}

/// One line of input plus the reply check it implies.
enum Frame {
    /// Well-formed request; the reply must NOT be an error frame.
    Valid(&'static [u8]),
    /// Malformed line; the reply must be an error frame with this code.
    Bad(Vec<u8>, ErrorCode),
}

fn random_frame(rng: &mut Rng) -> Frame {
    match rng.below(8) {
        0 => Frame::Valid(b"\"Ping\""),
        1 => Frame::Valid(b"\"Now\""),
        2 => Frame::Valid(b"{\"Instantaneous\":{\"query\":\"RETRIEVE o WHERE INSIDE(o, P)\"}}"),
        3 => Frame::Valid(b"\"Stats\""),
        // Truncated JSON: syntactically incomplete.
        4 => Frame::Bad(b"{\"AdvanceClock\":{\"ticks\":".to_vec(), ErrorCode::BadJson),
        // Valid JSON, wrong schema.
        5 => Frame::Bad(b"{\"NoSuchRequest\":1}".to_vec(), ErrorCode::BadRequest),
        // Oversized line (cap is 256 bytes).
        6 => {
            let len = MAX_FRAME + 1 + rng.below(512) as usize;
            Frame::Bad(vec![b'x'; len], ErrorCode::FrameTooLong)
        }
        // Random bytes; force both invalid UTF-8 and a leading byte no
        // JSON value starts with, so the expected code is unambiguous.
        _ => {
            let mut junk = vec![0xFFu8];
            for _ in 0..rng.below(40) {
                // Avoid newline (frame separator) and carriage return.
                let b = rng.random_range(1u64..=255) as u8;
                if b != b'\n' && b != b'\r' {
                    junk.push(b);
                }
            }
            Frame::Bad(junk, ErrorCode::InvalidUtf8)
        }
    }
}

#[test]
fn malformed_frames_never_kill_the_session() {
    let cfg = ServerConfig { max_frame: MAX_FRAME, ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", tiny_db(), cfg)
        .expect("bind ephemeral port");
    let addr = server.local_addr();

    for seed in 0..8u64 {
        let mut rng = Rng::seed_from_u64(0xF00D + seed);
        let stream = connect_with_retry(addr, 20).unwrap();
        let mut write_half = stream.try_clone().unwrap();
        // The client-side reader needs a cap bigger than reply frames
        // (answers can exceed the server's request cap).
        let mut reader = FrameReader::new(stream, 1 << 20);

        let frames: Vec<Frame> = (0..rng.random_range(20u64..60) as usize)
            .map(|_| random_frame(&mut rng))
            .collect();
        for (i, frame) in frames.iter().enumerate() {
            let bytes = match frame {
                Frame::Valid(b) => b.to_vec(),
                Frame::Bad(b, _) => b.clone(),
            };
            write_half.write_all(&bytes).unwrap();
            write_half.write_all(b"\n").unwrap();
            // Exactly one reply per line, in order.
            let line = reader
                .next_frame()
                .unwrap()
                .unwrap_or_else(|| panic!("seed {seed}: stream closed at frame {i}"))
                .unwrap_or_else(|e| panic!("seed {seed}: unreadable reply {e:?}"));
            let resp = decode_response(&line)
                .unwrap_or_else(|e| panic!("seed {seed}: undecodable reply {e:?}"));
            match frame {
                Frame::Valid(_) => assert!(
                    !matches!(resp, Response::Error { .. }),
                    "seed {seed}: valid frame {i} got {resp:?}"
                ),
                Frame::Bad(_, want) => match resp {
                    Response::Error { code, .. } => {
                        assert_eq!(code, *want, "seed {seed}: frame {i}")
                    }
                    other => panic!("seed {seed}: bad frame {i} got {other:?}"),
                },
            }
        }
        // The session is still fully functional after the abuse.
        write_half.write_all(b"\"Ping\"\n").unwrap();
        let line = reader.next_frame().unwrap().unwrap().unwrap();
        assert!(matches!(decode_response(&line).unwrap(), Response::Pong));
    }
    // Nothing above leaked a wedged session.  Session teardown is
    // asynchronous after a client disconnect, so poll briefly.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let stats = server.stats();
        if stats.sessions == 0 {
            assert_eq!(stats.opened, 8, "{stats:?}");
            break;
        }
        assert!(std::time::Instant::now() < deadline, "sessions never drained: {stats:?}");
        std::thread::yield_now();
    }
    server.shutdown();
}

#[test]
fn oversized_line_recovery_is_exact() {
    // An oversized request split across many small writes still yields
    // exactly one FrameTooLong error, and the next frame parses cleanly.
    let cfg = ServerConfig { max_frame: MAX_FRAME, ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", tiny_db(), cfg)
        .expect("bind ephemeral port");
    let stream = connect_with_retry(server.local_addr(), 20).unwrap();
    let mut write_half = stream.try_clone().unwrap();
    let mut reader = FrameReader::new(stream, 1 << 20);

    for chunk in vec![b'y'; 4 * MAX_FRAME].chunks(37) {
        write_half.write_all(chunk).unwrap();
    }
    write_half.write_all(b"\n\"Ping\"\n").unwrap();
    let line = reader.next_frame().unwrap().unwrap().unwrap();
    match decode_response(&line).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::FrameTooLong),
        other => panic!("expected FrameTooLong, got {other:?}"),
    }
    let line = reader.next_frame().unwrap().unwrap().unwrap();
    assert!(matches!(decode_response(&line).unwrap(), Response::Pong));
    server.shutdown();
}
