//! Durability check of a WAL directory, compared with the oracle byte
//! for byte, without recovering it.
//!
//! `DurableDb::open` would be the direct check, but recovering a
//! 20k-car checkpoint takes minutes: `most_testkit::ser`'s parser
//! re-validates the rest of its input as UTF-8 for every character of
//! every string, which is quadratic in the checkpoint's size (~5 MB
//! here).  So this reads what recovery reads instead: the checkpoint
//! text, which must equal the oracle's state at the checkpoint horizon,
//! and every framed record after the horizon, which must equal the
//! records the run sent, in order.  Together they are exactly the input
//! of recovery, so every acknowledged write is on disk.

use most_core::wal::WalRecord;
use most_core::Database;
use most_testkit::fnv1a64;
use most_testkit::ser::{to_json_string, Json, ToJson};
use std::path::Path;

const SEGMENT_MAGIC: &[u8] = b"MOSTWAL1";
const FRAME_HEADER: usize = 12;

/// What a WAL directory holds.
pub struct WalImage {
    /// The sequence number the checkpoint replays from.
    pub horizon: u64,
    /// The checkpoint's database JSON, refresh timings zeroed.
    pub db: String,
    /// Framed records in segment order, parsed.
    pub frames: Vec<Json>,
    /// A frame with a bad length or checksum.
    pub corrupt: bool,
}

pub fn read(dir: &Path) -> std::io::Result<WalImage> {
    let text = std::fs::read_to_string(dir.join("checkpoint.json"))?;
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
    let rest = text
        .strip_prefix("{\"next_seq\":")
        .ok_or_else(|| bad("checkpoint prefix"))?;
    let digits = rest.find(',').ok_or_else(|| bad("checkpoint horizon"))?;
    let horizon = rest[..digits]
        .parse()
        .map_err(|_| bad("checkpoint horizon"))?;
    let db = rest[digits..]
        .strip_prefix(",\"db\":")
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| bad("checkpoint body"))?;
    let mut segments: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segments.sort();
    let (mut frames, mut corrupt) = (Vec::new(), false);
    for seg in segments {
        let bytes = std::fs::read(seg)?;
        corrupt |= !bytes.starts_with(SEGMENT_MAGIC);
        let mut at = SEGMENT_MAGIC.len();
        while at + FRAME_HEADER <= bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
            let crc = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes"));
            let Some(payload) = bytes.get(at + FRAME_HEADER..at + FRAME_HEADER + len) else {
                corrupt = true;
                break;
            };
            match std::str::from_utf8(payload).ok().map(Json::parse) {
                Some(Ok(json)) if fnv1a64(payload) == crc => frames.push(json),
                _ => corrupt = true,
            }
            at += FRAME_HEADER + len;
        }
        corrupt |= at != bytes.len();
    }
    Ok(WalImage {
        horizon,
        db: zero_refresh_timings(db),
        frames,
        corrupt,
    })
}

/// The frame the log holds for record `seq`.
pub fn frame(seq: u64, record: &WalRecord) -> Json {
    Json::Obj(vec![
        ("seq".to_owned(), seq.to_json()),
        ("record".to_owned(), record.to_json()),
    ])
}

/// The database's JSON with every continuous query's refresh timing
/// zeroed, as `Database::fingerprint` compares it.
pub fn state(db: &Database) -> String {
    zero_refresh_timings(&to_json_string(db).expect("database encodes"))
}

fn zero_refresh_timings(json: &str) -> String {
    const KEY: &str = "\"refresh_nanos\":";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(i) = rest.find(KEY) {
        out.push_str(&rest[..i + KEY.len()]);
        out.push('0');
        rest = rest[i + KEY.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Compares an image with the oracle's record sequence, given the
/// oracle's [`state`] after the first `image.horizon` records.  Returns
/// the number of mismatches (0 when every acknowledged write is on disk).
pub fn verify(image: &WalImage, records: &[WalRecord], state_at_horizon: &str) -> u64 {
    let mut bad = u64::from(image.corrupt) + u64::from(image.db != state_at_horizon);
    let h = image.horizon as usize;
    let want: Vec<Json> = records
        .iter()
        .enumerate()
        .skip(h)
        .map(|(seq, r)| frame(seq as u64, r))
        .collect();
    // Segments wholly covered by the checkpoint are pruned, but the one
    // holding the horizon's predecessors may remain: skip to the horizon.
    let got: Vec<&Json> = image
        .frames
        .iter()
        .skip_while(|f| f.field("seq").ok() != Some(&(h as u64).to_json()))
        .collect();
    bad += got.iter().zip(&want).filter(|(g, w)| **g != *w).count() as u64;
    bad + got.len().abs_diff(want.len()) as u64
}
