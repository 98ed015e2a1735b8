//! Collective file I/O — the MPI-IO argument of the paper, miniaturized.
//!
//! Section 1.2: "MPTC allows tasks to use powerful software
//! implementations such as MPI-IO, which aggregate and optimize accesses
//! to distributed and parallel filesystems ... given N MTC processes, the
//! filesystem would be accessed by N clients; however, for 16-process
//! MPTC tasks using MPI-IO, the number of clients would be N/16."
//!
//! [`CollectiveFile`] implements exactly that aggregation: ranks are
//! partitioned into groups of `aggregation` consecutive ranks; on a
//! collective write, each group's members ship their blocks to the
//! group's aggregator rank, which performs one coalesced filesystem
//! write. The `bench/io_aggregation` harness
//! measures the client-count reduction against a modelled shared
//! filesystem.

use crate::comm::Communicator;
use crate::error::MpiError;
use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A file opened collectively by every rank of a communicator.
pub struct CollectiveFile {
    path: PathBuf,
    aggregation: u32,
    /// Filesystem operations performed *by this rank* (aggregators only).
    fs_ops: u64,
    /// Modelled per-operation cost of the shared filesystem (benchmarks
    /// use this to stand in for a loaded GPFS; zero by default).
    op_penalty: std::time::Duration,
}

impl CollectiveFile {
    /// Open (creating if needed) `path` across the communicator, with
    /// `aggregation` ranks per I/O aggregator. `aggregation = 1`
    /// degenerates to uncoordinated per-rank access; `aggregation =
    /// comm.size()` funnels everything through rank 0.
    pub fn open(
        comm: &mut Communicator,
        path: impl AsRef<Path>,
        aggregation: u32,
    ) -> Result<CollectiveFile, MpiError> {
        if aggregation == 0 {
            return Err(MpiError::Protocol(
                "aggregation factor must be at least 1".to_string(),
            ));
        }
        // Rank 0 creates the file; everyone waits on the barrier before
        // touching it.
        if comm.rank() == 0 {
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(path.as_ref())
                .map_err(|e| MpiError::Io(format!("create {:?}: {e}", path.as_ref())))?;
        }
        comm.barrier()?;
        Ok(CollectiveFile {
            path: path.as_ref().to_path_buf(),
            aggregation,
            fs_ops: 0,
            op_penalty: std::time::Duration::ZERO,
        })
    }

    /// Charge every filesystem operation a modelled `penalty` (stand-in
    /// for shared-filesystem load; see the `io_aggregation` bench).
    pub fn with_op_penalty(mut self, penalty: std::time::Duration) -> Self {
        self.op_penalty = penalty;
        self
    }

    fn charge_op(&mut self) {
        self.fs_ops += 1;
        if !self.op_penalty.is_zero() {
            std::thread::sleep(self.op_penalty);
        }
    }

    /// The aggregator rank for `rank`.
    fn aggregator_of(&self, rank: u32) -> u32 {
        (rank / self.aggregation) * self.aggregation
    }

    /// Ranks aggregated by `rank` (when it is an aggregator).
    fn group_of(&self, rank: u32, size: u32) -> std::ops::Range<u32> {
        let start = self.aggregator_of(rank);
        start..(start + self.aggregation).min(size)
    }

    /// Number of filesystem operations this rank has issued (the
    /// "clients" metric of the paper's argument).
    pub fn fs_ops(&self) -> u64 {
        self.fs_ops
    }

    /// Collective write: every rank contributes `data` at file offset
    /// `offset`. Group members send `(offset, data)` to their aggregator,
    /// which coalesces contiguous blocks and issues the minimum number of
    /// filesystem writes.
    pub fn write_at_all(
        &mut self,
        comm: &mut Communicator,
        offset: u64,
        data: &[u8],
    ) -> Result<(), MpiError> {
        let rank = comm.rank();
        let size = comm.size();
        let aggregator = self.aggregator_of(rank);
        let tag = comm.next_collective_tag();
        if rank != aggregator {
            // Frame: 8-byte offset header + payload.
            let mut buf = Vec::with_capacity(8 + data.len());
            buf.extend_from_slice(&offset.to_le_bytes());
            buf.extend_from_slice(data);
            comm.send_frame(aggregator, tag, Arc::from(buf))?;
        } else {
            let mut blocks: Vec<(u64, Vec<u8>)> = vec![(offset, data.to_vec())];
            for peer in self.group_of(rank, size) {
                if peer == rank {
                    continue;
                }
                let frame = comm.match_frame(peer, tag)?;
                if frame.payload.len() < 8 {
                    return Err(MpiError::Protocol("short write block".to_string()));
                }
                let peer_offset =
                    u64::from_le_bytes(frame.payload[..8].try_into().expect("8 bytes"));
                blocks.push((peer_offset, frame.payload[8..].to_vec()));
            }
            // Coalesce contiguous blocks into single filesystem writes.
            blocks.sort_by_key(|(o, _)| *o);
            let mut file = OpenOptions::new()
                .write(true)
                .open(&self.path)
                .map_err(|e| MpiError::Io(format!("open {:?}: {e}", self.path)))?;
            let mut i = 0;
            while i < blocks.len() {
                let run_offset = blocks[i].0;
                let mut run: Vec<u8> = Vec::new();
                let mut next = run_offset;
                while i < blocks.len() && blocks[i].0 == next {
                    next += blocks[i].1.len() as u64;
                    run.extend_from_slice(&blocks[i].1);
                    i += 1;
                }
                file.seek(SeekFrom::Start(run_offset))
                    .and_then(|_| file.write_all(&run))
                    .map_err(|e| MpiError::Io(format!("write {:?}: {e}", self.path)))?;
                self.charge_op();
            }
        }
        // The collective completes together, like MPI_File_write_at_all.
        comm.barrier()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netmodel::NetModel;
    use crate::runner::run_threads;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mpiio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(tag)
    }

    fn run_write(size: u32, aggregation: u32, tag: &str) -> (Vec<u8>, u64) {
        let path = tmp(tag);
        std::fs::remove_file(&path).ok();
        let block = 8usize;
        let p = path.clone();
        let ops = Arc::new(AtomicU64::new(0));
        let ops2 = Arc::clone(&ops);
        run_threads(size, NetModel::ideal(), move |comm| {
            let mut file = CollectiveFile::open(comm, &p, aggregation).unwrap();
            let rank = comm.rank();
            let data = vec![rank as u8 + 1; block];
            file.write_at_all(comm, rank as u64 * block as u64, &data)
                .unwrap();
            ops2.fetch_add(file.fs_ops(), Ordering::SeqCst);
            0
        })
        .unwrap();
        let contents = std::fs::read(&path).unwrap();
        (contents, ops.load(Ordering::SeqCst))
    }

    #[test]
    fn aggregated_write_produces_correct_file_with_fewer_ops() {
        let (contents, ops) = run_write(8, 4, "agg4.dat");
        assert_eq!(contents.len(), 64);
        for rank in 0..8u8 {
            assert!(contents[rank as usize * 8..(rank as usize + 1) * 8]
                .iter()
                .all(|&b| b == rank + 1));
        }
        // Two aggregators, one coalesced write each.
        assert_eq!(ops, 2);
    }

    #[test]
    fn unaggregated_write_uses_one_op_per_rank() {
        let (contents, ops) = run_write(8, 1, "agg1.dat");
        assert_eq!(contents.len(), 64);
        assert_eq!(ops, 8);
    }

    #[test]
    fn full_aggregation_funnels_through_rank0() {
        let (contents, ops) = run_write(6, 6, "agg6.dat");
        assert_eq!(contents.len(), 48);
        assert_eq!(ops, 1);
    }

    #[test]
    fn zero_aggregation_rejected() {
        run_threads(1, NetModel::ideal(), |comm| {
            assert!(CollectiveFile::open(comm, "/tmp/x", 0).is_err());
            0
        })
        .unwrap();
    }

    #[test]
    fn ragged_group_sizes_work() {
        // 5 ranks with aggregation 2: groups {0,1},{2,3},{4}.
        let (contents, ops) = run_write(5, 2, "ragged.dat");
        assert_eq!(contents.len(), 40);
        assert_eq!(ops, 3);
    }
}
