//! Benchmark stand-in for the `bytes::Bytes` subset JETS uses: cheap
//! clones of an immutable byte buffer. Backed by `Arc<Vec<u8>>`.

use std::sync::Arc;

/// Immutable, cheaply clonable byte buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bytes(Arc<Vec<u8>>);

impl Bytes {
    pub fn new() -> Self {
        Bytes(Arc::new(Vec::new()))
    }

    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes(Arc::new(bytes.to_vec()))
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes(Arc::new(data.to_vec()))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn clear(&mut self) {
        self.0 = Arc::new(Vec::new());
    }

    pub fn truncate(&mut self, len: usize) {
        if len < self.0.len() {
            let mut v = self.0.as_ref().clone();
            v.truncate(len);
            self.0 = Arc::new(v);
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Arc::new(v))
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}
