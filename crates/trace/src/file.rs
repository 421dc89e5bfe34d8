//! Trace record/replay: a compact binary on-disk format.
//!
//! Synthetic generators are deterministic in their seed, but real
//! methodologies also pin *captured* traces (e.g. Pin/Gem5 trace files) so
//! a run can be replayed bit-for-bit across machines and tool versions.
//! This module gives the same capability: 13 bytes per op
//! (`gap: u32 ‖ kind: u8 ‖ addr: u64`, little-endian) behind a streaming
//! reader, so multi-hundred-million-op traces replay without materializing.

use crate::record::{OpKind, TraceOp};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// File magic: "STNT" + format version 1.
const MAGIC: [u8; 5] = *b"STNT\x01";

/// Bytes per op record.
const RECORD: usize = 13;

fn kind_to_byte(k: OpKind) -> u8 {
    match k {
        OpKind::Load => 0,
        OpKind::Store => 1,
        OpKind::Flush => 2,
    }
}

fn kind_from_byte(b: u8) -> io::Result<OpKind> {
    match b {
        0 => Ok(OpKind::Load),
        1 => Ok(OpKind::Store),
        2 => Ok(OpKind::Flush),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown op kind {other}"),
        )),
    }
}

/// Writes `ops` to `path`, returning the number of ops written.
pub fn save_trace(path: impl AsRef<Path>, ops: impl Iterator<Item = TraceOp>) -> io::Result<u64> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&MAGIC)?;
    let mut count = 0u64;
    for op in ops {
        w.write_all(&op.gap.to_le_bytes())?;
        w.write_all(&[kind_to_byte(op.kind)])?;
        w.write_all(&op.addr.to_le_bytes())?;
        count += 1;
    }
    w.flush()?;
    Ok(count)
}

/// Streaming reader over a saved trace.
pub struct TraceFileReader {
    r: BufReader<File>,
    errored: bool,
}

impl TraceFileReader {
    /// Opens `path`, validating the header.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut r = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 5];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a Steins trace file (bad magic)",
            ));
        }
        Ok(TraceFileReader { r, errored: false })
    }

    /// Reads the next record, or `None` at the end of the file. The end is
    /// clean only at a record boundary: a torn last record is `InvalidData`.
    fn read_op(&mut self) -> io::Result<Option<TraceOp>> {
        if self.r.fill_buf()?.is_empty() {
            return Ok(None);
        }
        let mut rec = [0u8; RECORD];
        self.r.read_exact(&mut rec).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("torn trace: the last record has fewer than {RECORD} bytes"),
                )
            } else {
                e
            }
        })?;
        Ok(Some(TraceOp {
            gap: u32::from_le_bytes(rec[..4].try_into().unwrap()),
            kind: kind_from_byte(rec[4])?,
            addr: u64::from_le_bytes(rec[5..].try_into().unwrap()),
        }))
    }
}

impl Iterator for TraceFileReader {
    type Item = io::Result<TraceOp>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.errored {
            return None;
        }
        let op = self.read_op().transpose();
        self.errored = matches!(op, Some(Err(_)));
        op
    }
}

/// Loads a whole trace into memory (convenience for small traces/tests).
pub fn load_trace(path: impl AsRef<Path>) -> io::Result<Vec<TraceOp>> {
    TraceFileReader::open(path)?.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, WorkloadKind};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("steins-trace-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_every_op() {
        let path = tmp("roundtrip");
        let wl = Workload::new(WorkloadKind::PTree, 2_000, 77);
        let original: Vec<TraceOp> = wl.generate().collect();
        let written = save_trace(&path, original.iter().copied()).unwrap();
        assert_eq!(written as usize, original.len());
        let loaded = load_trace(&path).unwrap();
        assert_eq!(loaded, original);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"NOPE!abcdef").unwrap();
        assert!(TraceFileReader::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_record_surfaces_an_error() {
        let path = tmp("truncated");
        let ops: Vec<TraceOp> = Workload::new(WorkloadKind::Lbm, 10, 1).generate().collect();
        save_trace(&path, ops.iter().copied()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let nine = MAGIC.len() + 9 * RECORD;
        assert_eq!(bytes.len(), nine + RECORD);
        // Cut at the boundary before the last record: nine clean ops.
        std::fs::write(&path, &bytes[..nine]).unwrap();
        assert_eq!(load_trace(&path).unwrap(), ops[..9]);
        // Leave 1–12 bytes of the last record: nine ops, then InvalidData.
        for kept in 1..RECORD {
            std::fs::write(&path, &bytes[..nine + kept]).unwrap();
            let mut reader = TraceFileReader::open(&path).unwrap();
            let read: Vec<TraceOp> = reader.by_ref().take(9).map(Result::unwrap).collect();
            assert_eq!(read, ops[..9]);
            let err = reader.next().expect("a torn tail is reported").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{kept} bytes kept");
            assert!(reader.next().is_none(), "the reader stops after an error");
            assert_eq!(
                load_trace(&path).unwrap_err().kind(),
                io::ErrorKind::InvalidData
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trace_roundtrips() {
        let path = tmp("empty");
        save_trace(&path, std::iter::empty()).unwrap();
        assert!(load_trace(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }
}
