//! # jets-mpi — a sockets-based message-passing library
//!
//! JETS runs MPI applications whose processes are *not* started by
//! `mpiexec`: proxies are placed by the JETS dispatcher, and the user
//! processes find each other over plain sockets after a PMI business-card
//! exchange (on the Blue Gene/P this ran over the ZeptoOS IP-over-torus
//! device). This crate is that MPI substrate, reduced to the feature set
//! the paper's workloads exercise, but implemented as a real
//! message-passing library rather than a mock:
//!
//! * **Wire-up** via `jets-pmi`: each rank publishes a business card
//!   (`bc.<rank> = host:port/slot`), fences, and connects to peers lazily.
//! * **Transports** ([`transport`]): real TCP sockets ([`tcp`], received
//!   through one [`endpoint`] per pilot) for separate-process ranks, and an in-process fabric ([`mem`]) for
//!   thread-per-rank jobs, with an injectable [`NetModel`] reproducing the
//!   latency/bandwidth difference between native messaging (IBM DCMF) and
//!   MPICH2-over-ZeptoOS-TCP that Figure 8 of the paper measures.
//! * **Point-to-point** ([`Communicator::send`], [`Communicator::recv_vec`]):
//!   blocking, tagged, eager-protocol messaging with MPI's per-(source,
//!   destination) non-overtaking guarantee.
//! * **Collectives** ([`collectives`]): barrier (dissemination), broadcast
//!   (binomial tree), reduce/allreduce, gather/allgather, scatter.
//! * **A job runner** ([`runner`]): run an MPI program as `size` rank
//!   threads in-process — how simulated-allocation workers execute MPI
//!   tasks — or attach to a real PMI server from a separate process.
//!
//! ```
//! use jets_mpi::{runner, NetModel, ReduceOp};
//!
//! let sums = runner::run_threads(4, NetModel::ideal(), |comm| {
//!     let me = comm.rank() as f64;
//!     let total = comm.allreduce_scalar(me, ReduceOp::Sum).unwrap();
//!     comm.barrier().unwrap();
//!     total as i32
//! })
//! .unwrap();
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```

#![warn(missing_docs)]

pub mod collectives;
pub mod comm;
pub mod datatype;
pub mod endpoint;
pub mod error;
pub mod mem;
pub mod mpiio;
pub mod netmodel;
pub mod nonblocking;
pub mod runner;
pub mod tcp;
pub mod transport;

pub use comm::{Communicator, ANY_SOURCE};
pub use datatype::{MpiData, ReduceOp};
pub use endpoint::Endpoint;
pub use error::MpiError;
pub use mem::MemFabric;
pub use mpiio::CollectiveFile;
pub use netmodel::NetModel;
pub use nonblocking::{RecvRequest, SendRequest};
pub use transport::{Frame, Transport};
