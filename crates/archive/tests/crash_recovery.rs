//! Crash recovery: a SIGKILLed archive writer never loses a completed
//! record.
//!
//! The test binary is its own writer. Each round re-executes it as the
//! `#[ignore]`d [`writer_until_killed`] case, which reopens the archive
//! (recovering whatever the last kill left), resumes both lanes after
//! their last complete record and appends CRC'd records until it is
//! killed. The parent waits for the archive to grow, lets the writer run
//! a seeded few milliseconds more, kills it with SIGKILL and requires
//! that the signal, not the writer, ended it.
//!
//! A kill lands between `write(2)` calls and each record is one call, so
//! a kill alone never tears a record; a write the kernel cuts short at a
//! page boundary, or a power cut, does. So after each kill the parent
//! also appends a seeded prefix of each lane's next record to its open
//! segment. A read-only [`Archive::open`] scan must then report exactly
//! those torn bytes and find every lane contiguous from seq 0 with
//! byte-exact payloads, and more complete records than the round before:
//! the next writer has to truncate the tears to resume.
#![cfg(unix)]

use cs_archive::segment::encode_frame_record;
use cs_archive::{Archive, ArchiveConfig, ArchiveWriter, FsyncPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::OpenOptions;
use std::io::Write;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PATIENT: u32 = 0;
const LANES: [u8; 2] = [0, 1];
const ROUNDS: usize = 8;

/// How long any one step may take before the round fails.
const STALL: Duration = Duration::from_secs(10);

/// The writer's directory, named after the test process that spawns it:
/// the parent passes its own pid, the child its parent's.
fn archive_dir(parent: u32) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("crash-recovery-{parent}"))
}

/// The payload for `(lane, seq)`: length and bytes both derive from the
/// sequence number, so the check needs no side channel.
fn payload(lane: u8, seq: u64) -> Vec<u8> {
    let len = 200 + ((seq * 31 + u64::from(lane) * 7) % 120) as usize;
    (0..len)
        .map(|i| {
            (seq.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64 * 131 + u64::from(lane)) & 0xFF)
                as u8
        })
        .collect()
}

/// Each lane's next sequence number: one past its last complete record.
fn resume_points(archive: &Archive) -> [u64; 2] {
    LANES.map(|lane| {
        let segments = archive.segments(PATIENT, lane);
        segments.iter().filter(|s| s.records > 0).map(|s| s.max_seq + 1).max().unwrap_or(0)
    })
}

/// The child: appends to both lanes until killed. Run outside the parent
/// it finds no directory and returns, and any writer stops on its own
/// after a minute, far past a round.
#[test]
#[ignore = "the writer half of sigkilled_writer_loses_no_completed_record"]
fn writer_until_killed() {
    let dir = archive_dir(std::os::unix::process::parent_id());
    if !dir.is_dir() {
        return;
    }
    let mut next = resume_points(&Archive::open(&dir).unwrap().0);
    let config = ArchiveConfig {
        segment_bytes: 256 * 1024, // small segments: rotations happen within one round
        fsync: FsyncPolicy::EveryN(4),
        ..ArchiveConfig::default()
    };
    let (mut writer, _) = ArchiveWriter::open(&dir, config).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        for (lane, seq) in LANES.into_iter().zip(&mut next) {
            writer.append(PATIENT, lane, *seq, &payload(lane, *seq)).unwrap();
            *seq += 1;
        }
    }
}

/// Bytes stored under `dir`, all files counted.
fn stored_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap())
        .map(|entry| {
            let meta = entry.metadata().unwrap();
            if meta.is_dir() {
                stored_bytes(&entry.path())
            } else {
                meta.len()
            }
        })
        .sum()
}

/// A spawned writer, killed on drop so a failed assertion never leaves
/// it running.
struct Writer(Child);

impl Writer {
    fn spawn() -> Writer {
        let child = Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "writer_until_killed", "--ignored"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        Writer(child)
    }

    /// Fails if the writer has already exited, showing its stderr.
    fn assert_running(&mut self) {
        if let Some(status) = self.0.try_wait().unwrap() {
            let mut stderr = String::new();
            std::io::Read::read_to_string(self.0.stderr.as_mut().unwrap(), &mut stderr).unwrap();
            panic!("the writer exited on its own ({status}): {stderr}");
        }
    }

    /// SIGKILLs the writer and requires that the kill ended it.
    fn kill(mut self) {
        self.assert_running();
        self.0.kill().unwrap();
        let deadline = Instant::now() + STALL;
        let status = loop {
            if let Some(status) = self.0.try_wait().unwrap() {
                break status;
            }
            assert!(Instant::now() < deadline, "the writer outlived SIGKILL by {STALL:?}");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(status.signal(), Some(9), "the writer was not ended by SIGKILL: {status}");
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Appends a seeded prefix of each lane's next record to the lane's open
/// segment, as a write cut short would leave it; returns the bytes added.
fn tear_tails(dir: &Path, rng: &mut StdRng) -> u64 {
    let (archive, _) = Archive::open(dir).unwrap();
    let next = resume_points(&archive);
    let mut torn = 0;
    for (lane, seq) in LANES.into_iter().zip(next) {
        let Some(open) = archive.segments(PATIENT, lane).last().filter(|s| !s.sealed) else {
            continue;
        };
        let mut record = Vec::new();
        encode_frame_record(seq, &payload(lane, seq), &mut record);
        let cut = rng.gen_range(1..record.len());
        let mut file = OpenOptions::new().append(true).open(&open.path).unwrap();
        file.write_all(&record[..cut]).unwrap();
        torn += cut as u64;
    }
    torn
}

/// The read-only recovery scan: every lane contiguous from seq 0 with
/// byte-exact payloads and exactly `torn` bytes of torn tail. Returns
/// the complete records found.
fn verify(dir: &Path, torn: u64) -> u64 {
    let (archive, stats) = Archive::open(dir).unwrap();
    assert_eq!(stats.torn_bytes, torn, "the scan found other torn bytes than were torn: {stats:?}");
    let mut total = 0;
    for lane in LANES {
        let frames = archive.replay_range(PATIENT, lane, 0..u64::MAX).unwrap();
        for (i, frame) in frames.enumerate() {
            let frame = frame.unwrap();
            assert_eq!(frame.seq, i as u64, "lane {lane}: records lost before seq {}", frame.seq);
            assert!(
                frame.bytes == payload(lane, frame.seq),
                "lane {lane} seq {}: payload corrupted",
                frame.seq
            );
            total += 1;
        }
    }
    total
}

#[test]
fn sigkilled_writer_loses_no_completed_record() {
    let dir = archive_dir(std::process::id());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = StdRng::seed_from_u64(2011);
    let mut records = 0;
    for round in 1..=ROUNDS {
        let before = stored_bytes(&dir);
        let mut writer = Writer::spawn();
        let deadline = Instant::now() + STALL;
        while stored_bytes(&dir) <= before {
            writer.assert_running();
            assert!(
                Instant::now() < deadline,
                "round {round}: the archive did not grow in {STALL:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(rng.gen_range(5..45)));
        writer.kill();

        let torn = tear_tails(&dir, &mut rng);
        let found = verify(&dir, torn);
        assert!(
            found > records,
            "round {round}: {found} complete records, {records} before the round"
        );
        records = found;
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
