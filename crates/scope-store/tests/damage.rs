//! Seeded damage loop over the two framed layers. A framed WAL stream under
//! random byte flips, multi-byte damage, truncation and appended junk must
//! scan without panicking to a prefix of what was framed, with a tail
//! report that accounts for every input byte; a damaged snapshot file must
//! read back either whole or as `Corrupt`, never as other bytes.

use scope_store::snapshot::{read_snapshot, snapshot_path, write_snapshot};
use scope_store::wal::{frame_record, scan_records, RECORD_HEADER};
use scope_store::StoreError;

/// SplitMix64: a seeded stream without a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }

    /// 1 to 40 random bytes.
    fn junk(&mut self) -> Vec<u8> {
        let n = 1 + self.below(40);
        self.bytes(n)
    }
}

/// Mostly short payloads, some empty, a few past a hundred bytes.
fn payload(rng: &mut Rng) -> Vec<u8> {
    match rng.below(8) {
        0 => Vec::new(),
        1 => {
            let n = 100 + rng.below(200);
            rng.bytes(n)
        }
        _ => rng.junk(),
    }
}

/// Applies one random damage to `bytes` and returns the lowest offset whose
/// byte it may have changed or removed (`bytes.len()` before an append).
fn damage(rng: &mut Rng, bytes: &mut Vec<u8>) -> usize {
    let len = bytes.len();
    if len == 0 {
        bytes.extend(rng.junk());
        return 0;
    }
    match rng.below(4) {
        0 => {
            let at = rng.below(len);
            bytes[at] ^= 1 + rng.below(255) as u8;
            at
        }
        1 => {
            let at = rng.below(len);
            let run = (2 + rng.below(15)).min(len - at);
            let junk = rng.bytes(run);
            bytes[at..at + run].copy_from_slice(&junk);
            at
        }
        2 => {
            let cut = rng.below(len);
            bytes.truncate(cut);
            cut
        }
        _ => {
            bytes.extend(rng.junk());
            len
        }
    }
}

#[test]
fn damaged_wal_streams_scan_to_a_clean_prefix() {
    let mut rng = Rng(0x5701_e5ca);
    for case in 0..2_000 {
        let originals: Vec<Vec<u8>> = (0..rng.below(9)).map(|_| payload(&mut rng)).collect();
        let mut bytes: Vec<u8> = originals.iter().flat_map(|p| frame_record(p)).collect();
        // Frame end offsets: a record whose frame ends before the first
        // damaged byte must survive.
        let ends: Vec<usize> = originals
            .iter()
            .scan(0, |end, p| {
                *end += RECORD_HEADER + p.len();
                Some(*end)
            })
            .collect();
        let mut first_touched = bytes.len();
        for _ in 0..1 + rng.below(3) {
            first_touched = first_touched.min(damage(&mut rng, &mut bytes));
        }

        let (records, report) = scan_records(&bytes);
        assert!(records.len() <= originals.len(), "case {case}");
        assert_eq!(records, originals[..records.len()], "case {case}");
        let intact = ends.iter().filter(|&&e| e <= first_touched).count();
        assert!(
            records.len() >= intact,
            "case {case}: lost an intact record"
        );
        assert_eq!(report.records, records.len(), "case {case}");
        assert_eq!(
            report.clean_len + report.dropped_bytes,
            bytes.len() as u64,
            "case {case}"
        );
        let framed: usize = records.iter().map(|r| RECORD_HEADER + r.len()).sum();
        assert_eq!(report.clean_len, framed as u64, "case {case}");
    }
}

#[test]
fn damaged_snapshots_read_whole_or_corrupt() {
    let dir = std::env::temp_dir().join(format!("scope-store-damage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = Rng(0x5a4e_5407);
    let (mut whole, mut corrupt) = (0, 0);
    for gen in 0..300 {
        let payload = payload(&mut rng);
        write_snapshot(&dir, gen, &payload).unwrap();
        let path = snapshot_path(&dir, gen);
        let mut bytes = std::fs::read(&path).unwrap();
        for _ in 0..1 + rng.below(3) {
            damage(&mut rng, &mut bytes);
        }
        std::fs::write(&path, &bytes).unwrap();
        match read_snapshot(&path) {
            Ok(read) => {
                assert_eq!(read, payload, "snap.{gen} read back other bytes");
                whole += 1;
            }
            Err(StoreError::Corrupt(_)) => corrupt += 1,
            Err(e) => panic!("snap.{gen}: {e}"),
        }
    }
    // Damage that leaves the bytes as written (a run overwritten with what
    // it held) is rare; nearly every case must exercise the corrupt path.
    assert!(
        corrupt > 250 && whole + corrupt == 300,
        "{whole} whole, {corrupt} corrupt"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
