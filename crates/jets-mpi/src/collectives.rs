//! Collective operations, built on point-to-point messaging.
//!
//! Algorithms are the textbook ones MPICH uses for small communicators:
//! dissemination barrier, binomial-tree broadcast and reduce, linear
//! gather/scatter. Every collective call consumes one fresh internal tag
//! (`Communicator::next_collective_tag`) so back-to-back collectives
//! cannot cross-match even when fast ranks race ahead.

use crate::comm::Communicator;
use crate::datatype::{MpiData, MpiReduce, ReduceOp};
use crate::error::MpiError;
use std::sync::Arc;

impl Communicator {
    /// Block until every rank has entered the barrier (dissemination
    /// algorithm: ⌈log₂ n⌉ rounds).
    pub fn barrier(&mut self) -> Result<(), MpiError> {
        self.check_live()?;
        let tag = self.next_collective_tag();
        let size = self.size();
        let rank = self.rank();
        if size == 1 {
            return Ok(());
        }
        let mut step = 1u32;
        while step < size {
            let to = (rank + step) % size;
            let from = (rank + size - step) % size;
            self.send_frame(to, tag, Arc::from([]))?;
            self.match_frame(from, tag)?;
            step *= 2;
        }
        Ok(())
    }

    /// Broadcast `data` from `root` to every rank; non-roots pass their
    /// (ignored) buffer and receive the root's. Returns the broadcast data
    /// on every rank. Binomial tree: ⌈log₂ n⌉ rounds on the critical path.
    pub fn bcast<T: MpiData>(&mut self, root: u32, data: Vec<T>) -> Result<Vec<T>, MpiError> {
        self.check_live()?;
        let size = self.size();
        if root >= size {
            return Err(MpiError::Protocol(format!(
                "bcast root {root} out of range"
            )));
        }
        let tag = self.next_collective_tag();
        if size == 1 {
            return Ok(data);
        }
        let rank = self.rank();
        let vrank = (rank + size - root) % size;

        // Receive once from the parent (unless we are the root)...
        let buf: Arc<[u8]> = if vrank == 0 {
            let mut bytes = Vec::new();
            T::encode_slice(&data, &mut bytes);
            Arc::from(bytes)
        } else {
            let mut mask = 1u32;
            while vrank & mask == 0 {
                mask <<= 1;
            }
            let vparent = vrank & !mask;
            let parent = (vparent + root) % size;
            self.match_frame(parent, tag)?.payload
        };

        // ...then forward to children below our lowest set bit.
        let lowest = if vrank == 0 {
            next_pow2(size)
        } else {
            vrank & vrank.wrapping_neg()
        };
        let mut mask = lowest >> 1;
        while mask > 0 {
            let vchild = vrank | mask;
            if vchild < size {
                let child = (vchild + root) % size;
                self.send_frame(child, tag, buf.clone())?;
            }
            mask >>= 1;
        }

        if vrank == 0 {
            Ok(data)
        } else {
            T::decode_slice(&buf)
        }
    }

    /// Elementwise reduction of equal-length vectors onto `root`.
    /// Non-roots receive `None`. Binomial tree.
    pub fn reduce<T: MpiReduce>(
        &mut self,
        root: u32,
        data: &[T],
        op: ReduceOp,
    ) -> Result<Option<Vec<T>>, MpiError> {
        self.check_live()?;
        let size = self.size();
        if root >= size {
            return Err(MpiError::Protocol(format!(
                "reduce root {root} out of range"
            )));
        }
        let tag = self.next_collective_tag();
        let rank = self.rank();
        let vrank = (rank + size - root) % size;
        let mut acc = data.to_vec();

        let mut mask = 1u32;
        while mask < size {
            if vrank & mask != 0 {
                let vparent = vrank & !mask;
                let parent = (vparent + root) % size;
                let mut bytes = Vec::new();
                T::encode_slice(&acc, &mut bytes);
                self.send_frame(parent, tag, Arc::from(bytes))?;
                return Ok(None);
            }
            let vchild = vrank | mask;
            if vchild < size {
                let child = (vchild + root) % size;
                let frame = self.match_frame(child, tag)?;
                let partial = T::decode_slice(&frame.payload)?;
                if partial.len() != acc.len() {
                    return Err(MpiError::Protocol(format!(
                        "reduce length mismatch: {} vs {}",
                        partial.len(),
                        acc.len()
                    )));
                }
                for (a, p) in acc.iter_mut().zip(partial) {
                    *a = T::combine(op, *a, p);
                }
            }
            mask <<= 1;
        }
        Ok(Some(acc))
    }

    /// Reduction delivered to every rank (reduce to 0, then broadcast).
    pub fn allreduce<T: MpiReduce>(
        &mut self,
        data: &[T],
        op: ReduceOp,
    ) -> Result<Vec<T>, MpiError> {
        let reduced = self.reduce(0, data, op)?;
        self.bcast(0, reduced.unwrap_or_default())
    }

    /// Scalar convenience wrapper over [`Communicator::allreduce`].
    pub fn allreduce_scalar<T: MpiReduce>(
        &mut self,
        value: T,
        op: ReduceOp,
    ) -> Result<T, MpiError> {
        let v = self.allreduce(&[value], op)?;
        v.into_iter()
            .next()
            .ok_or_else(|| MpiError::Protocol("empty allreduce result".to_string()))
    }

    /// Gather equal-length contributions onto `root`, concatenated in rank
    /// order. Non-roots receive `None`.
    pub fn gather<T: MpiData>(
        &mut self,
        root: u32,
        data: &[T],
    ) -> Result<Option<Vec<T>>, MpiError> {
        self.check_live()?;
        let size = self.size();
        if root >= size {
            return Err(MpiError::Protocol(format!(
                "gather root {root} out of range"
            )));
        }
        let tag = self.next_collective_tag();
        if self.rank() == root {
            let mut out = Vec::with_capacity(data.len() * size as usize);
            for src in 0..size {
                if src == root {
                    out.extend_from_slice(data);
                } else {
                    let frame = self.match_frame(src, tag)?;
                    let part = T::decode_slice(&frame.payload)?;
                    if part.len() != data.len() {
                        return Err(MpiError::Protocol(format!(
                            "gather length mismatch from rank {src}: {} vs {}",
                            part.len(),
                            data.len()
                        )));
                    }
                    out.extend(part);
                }
            }
            Ok(Some(out))
        } else {
            let mut bytes = Vec::new();
            T::encode_slice(data, &mut bytes);
            self.send_frame(root, tag, Arc::from(bytes))?;
            Ok(None)
        }
    }

    /// Gather delivered to every rank (gather to 0, then broadcast).
    pub fn allgather<T: MpiData>(&mut self, data: &[T]) -> Result<Vec<T>, MpiError> {
        let gathered = self.gather(0, data)?;
        self.bcast(0, gathered.unwrap_or_default())
    }

    /// Scatter `data` (length = k × size, on root only) so rank `i`
    /// receives elements `[i*k, (i+1)*k)`.
    pub fn scatter<T: MpiData>(
        &mut self,
        root: u32,
        data: Option<&[T]>,
    ) -> Result<Vec<T>, MpiError> {
        self.check_live()?;
        let size = self.size();
        if root >= size {
            return Err(MpiError::Protocol(format!(
                "scatter root {root} out of range"
            )));
        }
        let tag = self.next_collective_tag();
        if self.rank() == root {
            let data = data
                .ok_or_else(|| MpiError::Protocol("scatter root must supply data".to_string()))?;
            if data.len() % size as usize != 0 {
                return Err(MpiError::Protocol(format!(
                    "scatter length {} not divisible by {size}",
                    data.len()
                )));
            }
            let chunk = data.len() / size as usize;
            let mut mine = Vec::new();
            for dst in 0..size {
                let part = &data[dst as usize * chunk..(dst as usize + 1) * chunk];
                if dst == root {
                    mine = part.to_vec();
                } else {
                    let mut bytes = Vec::new();
                    T::encode_slice(part, &mut bytes);
                    self.send_frame(dst, tag, Arc::from(bytes))?;
                }
            }
            Ok(mine)
        } else {
            let frame = self.match_frame(root, tag)?;
            T::decode_slice(&frame.payload)
        }
    }
}

impl Communicator {
    /// All-to-all personalized exchange: `data` holds `size` equal chunks
    /// (chunk `i` destined for rank `i`); returns the `size` chunks
    /// received, concatenated in source-rank order.
    pub fn alltoall<T: MpiData>(&mut self, data: &[T]) -> Result<Vec<T>, MpiError> {
        self.check_live()?;
        let size = self.size() as usize;
        if !data.len().is_multiple_of(size) {
            return Err(MpiError::Protocol(format!(
                "alltoall length {} not divisible by {size}",
                data.len()
            )));
        }
        let tag = self.next_collective_tag();
        let chunk = data.len() / size;
        let rank = self.rank() as usize;
        // Send phase: everything except our own chunk.
        for dst in 0..size {
            if dst == rank {
                continue;
            }
            let part = &data[dst * chunk..(dst + 1) * chunk];
            let mut bytes = Vec::new();
            T::encode_slice(part, &mut bytes);
            self.send_frame(dst as u32, tag, Arc::from(bytes))?;
        }
        // Receive phase, assembling in source order.
        let mut out: Vec<Option<Vec<T>>> = vec![None; size];
        out[rank] = Some(data[rank * chunk..(rank + 1) * chunk].to_vec());
        for src in (0..size).filter(|&s| s != rank) {
            let frame = self.match_frame(src as u32, tag)?;
            let part = T::decode_slice(&frame.payload)?;
            if part.len() != chunk {
                return Err(MpiError::Protocol(format!(
                    "alltoall chunk mismatch from rank {src}: {} vs {chunk}",
                    part.len()
                )));
            }
            out[src] = Some(part);
        }
        Ok(out.into_iter().flatten().flatten().collect())
    }

    /// Inclusive prefix reduction: rank `r` receives the reduction of
    /// ranks `0..=r`'s contributions (linear chain).
    pub fn scan<T: MpiReduce>(&mut self, data: &[T], op: ReduceOp) -> Result<Vec<T>, MpiError> {
        self.check_live()?;
        let tag = self.next_collective_tag();
        let rank = self.rank();
        let size = self.size();
        let mut acc = data.to_vec();
        if rank > 0 {
            let frame = self.match_frame(rank - 1, tag)?;
            let prefix = T::decode_slice(&frame.payload)?;
            if prefix.len() != acc.len() {
                return Err(MpiError::Protocol(format!(
                    "scan length mismatch: {} vs {}",
                    prefix.len(),
                    acc.len()
                )));
            }
            for (a, p) in acc.iter_mut().zip(prefix) {
                *a = T::combine(op, p, *a);
            }
        }
        if rank + 1 < size {
            let mut bytes = Vec::new();
            T::encode_slice(&acc, &mut bytes);
            self.send_frame(rank + 1, tag, Arc::from(bytes))?;
        }
        Ok(acc)
    }
}

fn next_pow2(n: u32) -> u32 {
    n.next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netmodel::NetModel;
    use crate::runner::run_threads;

    #[test]
    fn barrier_completes_for_various_sizes() {
        for size in [1u32, 2, 3, 4, 5, 8, 13] {
            run_threads(size, NetModel::ideal(), |comm| {
                for _ in 0..3 {
                    comm.barrier().unwrap();
                }
                0i32
            })
            .unwrap();
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for size in [2u32, 3, 4, 7] {
            for root in 0..size {
                let results = run_threads(size, NetModel::ideal(), move |comm| {
                    let data = if comm.rank() == root {
                        vec![root as i64, 17, -3]
                    } else {
                        Vec::new()
                    };
                    let got = comm.bcast(root, data).unwrap();
                    assert_eq!(got, vec![root as i64, 17, -3]);
                    1i32
                })
                .unwrap();
                assert_eq!(results.len(), size as usize);
            }
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        for size in [1u32, 2, 3, 6, 8] {
            run_threads(size, NetModel::ideal(), move |comm| {
                let mine = vec![comm.rank() as f64, 1.0];
                let out = comm.reduce(0, &mine, ReduceOp::Sum).unwrap();
                if comm.rank() == 0 {
                    let expect_sum = (0..size).map(f64::from).sum::<f64>();
                    assert_eq!(out.unwrap(), vec![expect_sum, size as f64]);
                } else {
                    assert!(out.is_none());
                }
                0i32
            })
            .unwrap();
        }
    }

    #[test]
    fn allreduce_max_agrees_everywhere() {
        run_threads(5, NetModel::ideal(), |comm| {
            let m = comm
                .allreduce_scalar(comm.rank() as i64 * 10, ReduceOp::Max)
                .unwrap();
            assert_eq!(m, 40);
            0i32
        })
        .unwrap();
    }

    #[test]
    fn gather_concatenates_in_rank_order() {
        run_threads(4, NetModel::ideal(), |comm| {
            let mine = vec![comm.rank(); 2];
            let out = comm.gather(2, &mine).unwrap();
            if comm.rank() == 2 {
                assert_eq!(out.unwrap(), vec![0, 0, 1, 1, 2, 2, 3, 3]);
            } else {
                assert!(out.is_none());
            }
            0i32
        })
        .unwrap();
    }

    #[test]
    fn allgather_delivers_everywhere() {
        run_threads(3, NetModel::ideal(), |comm| {
            let out = comm.allgather(&[comm.rank() as i32]).unwrap();
            assert_eq!(out, vec![0, 1, 2]);
            0i32
        })
        .unwrap();
    }

    #[test]
    fn scatter_distributes_chunks() {
        run_threads(4, NetModel::ideal(), |comm| {
            let data: Option<Vec<u16>> = if comm.rank() == 0 {
                Some((0..8).collect())
            } else {
                None
            };
            let mine = comm.scatter(0, data.as_deref()).unwrap();
            let r = comm.rank() as u16;
            assert_eq!(mine, vec![2 * r, 2 * r + 1]);
            0i32
        })
        .unwrap();
    }

    #[test]
    fn scatter_rejects_ragged_input() {
        run_threads(3, NetModel::ideal(), |comm| {
            if comm.rank() == 0 {
                let err = comm.scatter(0, Some(&[1u8, 2, 3, 4][..])).unwrap_err();
                assert!(matches!(err, MpiError::Protocol(_)));
            }
            0i32
        })
        .unwrap();
    }

    #[test]
    fn alltoall_transposes_chunks() {
        run_threads(4, NetModel::ideal(), |comm| {
            let rank = comm.rank();
            // Chunk destined for rank d is [rank*10 + d].
            let data: Vec<i32> = (0..4).map(|d| (rank * 10 + d) as i32).collect();
            let out = comm.alltoall(&data).unwrap();
            // Received chunk from source s is [s*10 + rank].
            let expect: Vec<i32> = (0..4).map(|s| (s * 10 + rank) as i32).collect();
            assert_eq!(out, expect);
            0i32
        })
        .unwrap();
    }

    #[test]
    fn alltoall_rejects_ragged_input() {
        run_threads(3, NetModel::ideal(), |comm| {
            if comm.rank() == 0 {
                assert!(comm.alltoall(&[1u8, 2]).is_err());
            }
            0i32
        })
        .unwrap();
    }

    #[test]
    fn scan_computes_inclusive_prefixes() {
        run_threads(5, NetModel::ideal(), |comm| {
            let r = comm.rank() as i64;
            let out = comm.scan(&[r + 1], ReduceOp::Sum).unwrap();
            // 1 + 2 + ... + (r+1)
            assert_eq!(out, vec![(r + 1) * (r + 2) / 2]);
            let m = comm.scan(&[r + 1], ReduceOp::Max).unwrap();
            assert_eq!(m, vec![r + 1]);
            0i32
        })
        .unwrap();
    }

    #[test]
    fn scan_single_rank_is_identity() {
        run_threads(1, NetModel::ideal(), |comm| {
            assert_eq!(comm.scan(&[7i32, 8], ReduceOp::Prod).unwrap(), vec![7, 8]);
            0i32
        })
        .unwrap();
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_match() {
        run_threads(4, NetModel::ideal(), |comm| {
            for round in 0..20i64 {
                let s = comm.allreduce_scalar(round, ReduceOp::Sum).unwrap();
                assert_eq!(s, round * 4);
            }
            0i32
        })
        .unwrap();
    }
}
