//! Nonblocking point-to-point operations.
//!
//! The paper's workloads are mostly blocking, but NAMD-class codes
//! overlap communication and computation; `isend`/`irecv` with
//! [`SendRequest`]/[`RecvRequest`] handles make the substrate credible
//! for them. Semantics follow MPI: an isend's payload is owned by the
//! library until completion (eager transfer makes completion immediate
//! here, as in MPICH's eager protocol for small messages); an irecv is
//! matched at `wait` time against the same `(source, tag)` rules as
//! blocking receives.

use crate::comm::Communicator;
use crate::datatype::MpiData;
use crate::error::MpiError;
use std::sync::Arc;

/// Handle for an in-flight (already eagerly transferred) send.
#[derive(Debug)]
#[must_use = "a send request must be waited on"]
pub struct SendRequest {
    completed: bool,
}

impl SendRequest {
    /// Complete the send. With the eager protocol this never blocks.
    pub fn wait(mut self) -> Result<(), MpiError> {
        self.completed = true;
        Ok(())
    }
}

/// Handle for a posted receive; matching happens at wait time.
#[derive(Debug)]
#[must_use = "a receive request must be waited on"]
pub struct RecvRequest {
    src: u32,
    tag: u32,
}

impl RecvRequest {
    /// Block until a matching message arrives, returning `(source,
    /// payload)`.
    pub fn wait_bytes(self, comm: &mut Communicator) -> Result<(u32, Arc<[u8]>), MpiError> {
        comm.recv_bytes(self.src, self.tag)
    }

    /// Typed variant of [`RecvRequest::wait_bytes`].
    pub fn wait<T: MpiData>(self, comm: &mut Communicator) -> Result<(u32, Vec<T>), MpiError> {
        comm.recv_vec(self.src, self.tag)
    }

    /// Check for a matching message without blocking; completes and
    /// returns the payload if one is queued.
    pub fn test<T: MpiData>(
        self,
        comm: &mut Communicator,
    ) -> Result<Result<(u32, Vec<T>), RecvRequest>, MpiError> {
        match comm.try_match(self.src, self.tag)? {
            Some(frame) => Ok(Ok((frame.src, T::decode_slice(&frame.payload)?))),
            None => Ok(Err(self)),
        }
    }
}

impl Communicator {
    /// Start a nonblocking send. The transfer is eager: bytes are handed
    /// to the fabric before this returns, so the returned request exists
    /// to mirror MPI semantics (and to keep call sites honest about
    /// completion).
    pub fn isend<T: MpiData>(
        &mut self,
        dst: u32,
        tag: u32,
        data: &[T],
    ) -> Result<SendRequest, MpiError> {
        self.send(dst, tag, data)?;
        Ok(SendRequest { completed: false })
    }

    /// Post a nonblocking receive for `(src, tag)`; `src` may be
    /// [`crate::ANY_SOURCE`].
    pub fn irecv(&mut self, src: u32, tag: u32) -> RecvRequest {
        RecvRequest { src, tag }
    }
}

#[cfg(test)]
mod tests {
    use crate::netmodel::NetModel;
    use crate::runner::run_threads;
    use crate::ANY_SOURCE;

    #[test]
    fn isend_irecv_round_trip() {
        run_threads(2, NetModel::ideal(), |comm| {
            if comm.rank() == 0 {
                let req = comm.isend(1, 5, &[1i32, 2, 3]).unwrap();
                req.wait().unwrap();
            } else {
                let req = comm.irecv(0, 5);
                let (src, data) = req.wait::<i32>(comm).unwrap();
                assert_eq!(src, 0);
                assert_eq!(data, vec![1, 2, 3]);
            }
            0
        })
        .unwrap();
    }

    #[test]
    fn overlap_compute_with_pending_receive() {
        // Post the receive before doing "work", then complete it.
        run_threads(2, NetModel::ideal(), |comm| {
            if comm.rank() == 0 {
                let req = comm.irecv(1, 9);
                let mut acc = 0u64; // the overlapped computation
                for i in 0..10_000u64 {
                    acc = acc.wrapping_add(i * i);
                }
                let (_, data) = req.wait::<u64>(comm).unwrap();
                assert_eq!(data, vec![acc % 2 + 40]); // 40 or 41
            } else {
                let mut acc = 0u64;
                for i in 0..10_000u64 {
                    acc = acc.wrapping_add(i * i);
                }
                comm.isend(0, 9, &[acc % 2 + 40]).unwrap().wait().unwrap();
            }
            0
        })
        .unwrap();
    }

    #[test]
    fn test_polls_without_blocking() {
        run_threads(2, NetModel::ideal(), |comm| {
            if comm.rank() == 0 {
                // Nothing sent yet: test must return the request.
                let req = comm.irecv(1, 3);
                let req = match req.test::<u8>(comm).unwrap() {
                    Ok(_) => panic!("no message should be queued yet"),
                    Err(req) => req,
                };
                comm.barrier().unwrap(); // now rank 1 sends
                                         // Eventually the poll succeeds.
                let mut req = req;
                let data = loop {
                    match req.test::<u8>(comm).unwrap() {
                        Ok((_, data)) => break data,
                        Err(r) => {
                            req = r;
                            std::thread::yield_now();
                        }
                    }
                };
                assert_eq!(data, vec![7]);
            } else {
                comm.barrier().unwrap();
                comm.send(0, 3, &[7u8]).unwrap();
            }
            0
        })
        .unwrap();
    }

    #[test]
    fn irecv_any_source() {
        run_threads(3, NetModel::ideal(), |comm| {
            if comm.rank() == 0 {
                let mut sources = Vec::new();
                for _ in 0..2 {
                    let req = comm.irecv(ANY_SOURCE, 1);
                    let (src, _) = req.wait::<u8>(comm).unwrap();
                    sources.push(src);
                }
                sources.sort_unstable();
                assert_eq!(sources, vec![1, 2]);
            } else {
                comm.send(0, 1, &[comm.rank() as u8]).unwrap();
            }
            0
        })
        .unwrap();
    }
}
