//! The rank side of PMI: what an MPI process uses during wire-up.
//!
//! A Hydra proxy launches each user process with `PMI_RANK`, `PMI_SIZE`,
//! `PMI_ADDR`, and `PMI_JOBID` in its environment; the MPI library then
//! constructs a [`PmiClient`] (see [`PmiClient::from_lookup`]), publishes
//! its business card, fences, and fetches its peers' cards.

use crate::wire::Message;
use crate::{ENV_ADDR, ENV_JOBID, ENV_RANK, ENV_SIZE};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{IpAddr, TcpStream};

/// Errors surfaced by PMI client operations.
#[derive(Debug)]
pub enum PmiError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server answered with something other than the expected ack.
    Protocol(String),
    /// The job was aborted.
    Aborted(String),
    /// A required `PMI_*` environment variable is missing or malformed.
    BadEnvironment(String),
}

impl std::fmt::Display for PmiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmiError::Io(e) => write!(f, "pmi i/o error: {e}"),
            PmiError::Protocol(m) => write!(f, "pmi protocol error: {m}"),
            PmiError::Aborted(r) => write!(f, "pmi job aborted: {r}"),
            PmiError::BadEnvironment(v) => write!(f, "bad PMI environment: {v}"),
        }
    }
}

impl std::error::Error for PmiError {}

impl From<io::Error> for PmiError {
    fn from(e: io::Error) -> Self {
        PmiError::Io(e)
    }
}

/// A connected PMI client for one rank of one job.
///
/// Wire-up costs one round trip: `connect` writes `init` and does not wait,
/// `put` only buffers (PMI-1 promises visibility after the fence, not
/// before), and `fence` sends `init`'s successors in one write and reads the
/// acknowledgements in order — the last of which, `fence_ack`, carries what
/// the job committed, so the `get`s that follow are answered from it.
#[derive(Debug)]
pub struct PmiClient {
    rank: u32,
    size: u32,
    jobid: String,
    conn: BufReader<TcpStream>,
    /// Lines not yet written: the buffered `put`s.
    out: String,
    /// Acknowledgements due before the next reply: `init`'s, the `put`s'.
    owed: Vec<Message>,
    /// What the fences so far made visible.
    committed: HashMap<String, String>,
    round_trips: u64,
}

impl PmiClient {
    /// Connect to the PMI server at `addr` and send `cmd=init`. A server
    /// that refuses it (wrong size, unknown job, rank taken) says so in
    /// place of the first reply this client waits for.
    pub fn connect(addr: &str, rank: u32, size: u32, jobid: &str) -> Result<PmiClient, PmiError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = PmiClient {
            rank,
            size,
            jobid: jobid.to_string(),
            conn: BufReader::new(stream),
            out: String::new(),
            owed: Vec::new(),
            committed: HashMap::new(),
            round_trips: 0,
        };
        let jobid = jobid.to_string();
        client.push(&Message::Init { rank, size, jobid }, Some(Message::InitAck));
        client.flush()?;
        Ok(client)
    }

    /// Build a client from an environment lookup: the task assignment's
    /// env map for an in-process (thread-rank) task, `std::env::var` for a
    /// real process, the way Hydra proxies configure user executables.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<PmiClient, PmiError> {
        let var =
            |k: &str| lookup(k).ok_or_else(|| PmiError::BadEnvironment(format!("{k} not set")));
        let parse = |k: &str| -> Result<u32, PmiError> {
            var(k)?
                .parse()
                .map_err(|_| PmiError::BadEnvironment(format!("{k} not a number")))
        };
        let rank = parse(ENV_RANK)?;
        let size = parse(ENV_SIZE)?;
        let addr = var(ENV_ADDR)?;
        let jobid = var(ENV_JOBID)?;
        PmiClient::connect(&addr, rank, size, &jobid)
    }

    /// This rank's index in `0..size`.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// World size of the job.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Job identifier.
    pub fn jobid(&self) -> &str {
        &self.jobid
    }

    /// The local address of the connection to the server: the interface
    /// that routes to the manager, hence the one peers should be told.
    pub fn local_ip(&self) -> io::Result<IpAddr> {
        Ok(self.conn.get_ref().local_addr()?.ip())
    }

    /// Times this client has written and then waited for the server.
    pub fn round_trips(&self) -> u64 {
        self.round_trips
    }

    /// Publish `key=value` into the job KVS. Buffered: it reaches the
    /// server with the next `fence`, `get` or `finalize`.
    pub fn put(&mut self, key: &str, value: &str) -> Result<(), PmiError> {
        let (key, value) = (key.to_string(), value.to_string());
        self.push(&Message::Put { key, value }, Some(Message::PutAck));
        Ok(())
    }

    /// Fetch a key from the job KVS (`None` if absent). A key a fence
    /// already delivered is answered locally.
    pub fn get(&mut self, key: &str) -> Result<Option<String>, PmiError> {
        if let Some(value) = self.committed.get(key) {
            return Ok(Some(value.clone()));
        }
        let key = key.to_string();
        match self.exchange(&Message::Get { key })? {
            Message::GetAck { value } => Ok(Some(value)),
            Message::GetFail { .. } => Ok(None),
            other => Err(unexpected("get_ack", other)),
        }
    }

    /// Enter the collective fence; returns once all ranks have fenced.
    pub fn fence(&mut self) -> Result<(), PmiError> {
        match self.exchange(&Message::Fence)? {
            Message::FenceAck { pairs } => {
                self.committed.extend(pairs);
                Ok(())
            }
            other => Err(unexpected("fence_ack", other)),
        }
    }

    /// Orderly exit; after this the connection is spent.
    pub fn finalize(&mut self) -> Result<(), PmiError> {
        match self.exchange(&Message::Finalize)? {
            Message::FinalizeAck => Ok(()),
            other => Err(unexpected("finalize_ack", other)),
        }
    }

    /// Abort the whole job from this rank.
    pub fn abort(&mut self, reason: &str) -> Result<(), PmiError> {
        let reason = reason.to_string();
        self.push(&Message::Abort { reason }, None);
        self.flush()
    }

    /// Buffer `msg`; the server will answer it with `ack`, if with anything.
    fn push(&mut self, msg: &Message, ack: Option<Message>) {
        self.out.push_str(&msg.encode());
        self.out.push('\n');
        self.owed.extend(ack);
    }

    fn flush(&mut self) -> Result<(), PmiError> {
        let written = self.conn.get_mut().write_all(self.out.as_bytes());
        self.out.clear();
        Ok(written?)
    }

    /// One round trip: everything buffered plus `msg` in one write, then
    /// the acknowledgements owed, then the reply to `msg`.
    fn exchange(&mut self, msg: &Message) -> Result<Message, PmiError> {
        self.push(msg, None);
        self.flush()?;
        self.round_trips += 1;
        for ack in std::mem::take(&mut self.owed) {
            match self.recv()? {
                got if got == ack => {}
                other => return Err(unexpected(&format!("{ack:?}"), other)),
            }
        }
        self.recv()
    }

    fn recv(&mut self) -> Result<Message, PmiError> {
        let mut line = String::new();
        let n = self.conn.read_line(&mut line)?;
        if n == 0 {
            return Err(PmiError::Protocol("server closed connection".to_string()));
        }
        Message::decode(&line).map_err(|e| PmiError::Protocol(e.to_string()))
    }
}

/// The server answered `got` where `want` was due: the job's abort, or a
/// protocol error.
fn unexpected(want: &str, got: Message) -> PmiError {
    match got {
        Message::Abort { reason } => PmiError::Aborted(reason),
        other => PmiError::Protocol(format!("expected {want}, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{JobOutcome, PmiServer, PmiServerConfig};
    use std::time::Duration;

    #[test]
    fn from_lookup_reads_all_variables() {
        let server = PmiServer::start(PmiServerConfig::new("envjob", 1)).unwrap();
        let addr = server.addr().to_string();
        let env = [
            (ENV_RANK, "0".to_string()),
            (ENV_SIZE, "1".to_string()),
            (ENV_ADDR, addr),
            (ENV_JOBID, "envjob".to_string()),
        ];
        let mut client =
            PmiClient::from_lookup(|k| env.iter().find(|(n, _)| *n == k).map(|(_, v)| v.clone()))
                .unwrap();
        assert_eq!(client.rank(), 0);
        assert_eq!(client.size(), 1);
        assert_eq!(client.jobid(), "envjob");
        client.finalize().unwrap();
        assert_eq!(server.wait(Duration::from_secs(5)), JobOutcome::Success);
    }

    #[test]
    fn from_lookup_rejects_missing_rank() {
        let err = PmiClient::from_lookup(|_| None).unwrap_err();
        assert!(matches!(err, PmiError::BadEnvironment(_)));
    }

    #[test]
    fn from_lookup_rejects_malformed_size() {
        let err = PmiClient::from_lookup(|k| match k {
            ENV_RANK => Some("0".to_string()),
            ENV_SIZE => Some("many".to_string()),
            _ => Some("x".to_string()),
        })
        .unwrap_err();
        assert!(matches!(err, PmiError::BadEnvironment(_)));
    }
}
