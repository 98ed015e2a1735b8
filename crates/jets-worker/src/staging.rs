//! Node-local storage staging — feature 2 of the JETS design (Section 5):
//! "JETS can cache libraries and tools (such as the MPICH2 proxy binary)
//! and even user data on node-local storage, which boosts startup
//! performance and thus utilization for ensembles of short jobs. In
//! practice, the files to be stored in this way are simply provided to
//! the JETS start-up script as a simple list."
//!
//! On the Blue Gene/P this was the ZeptoOS RAM filesystem; here each
//! worker owns a [`NodeLocalCache`] directory. Job specifications list
//! [`StageFile`]s; before the first task of a job runs on a node, the
//! worker copies each listed file into its cache (once — subsequent jobs
//! reuse the cached copy) and exports the cache directory to the task as
//! `JETS_LOCAL_DIR`. The directory lives as long as the cache: the
//! pilot's agent loop drops it when it ends.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

pub use jets_core::spec::StageFile;

/// A worker's node-local file cache. It owns its directory: dropping
/// the cache removes the directory and everything staged into it.
pub struct NodeLocalCache {
    dir: PathBuf,
    /// name → source it was staged from (for conflict detection); one
    /// entry per copy made.
    entries: HashMap<String, String>,
}

impl NodeLocalCache {
    /// Create (or reuse) a cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<NodeLocalCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let entries = HashMap::new();
        Ok(NodeLocalCache { dir, entries })
    }

    /// The cache directory (exported to tasks as `JETS_LOCAL_DIR`).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of copies performed so far (misses; hits are free).
    pub fn copies(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Ensure `file` is present locally; returns its local path.
    /// Copies at most once per name; staging a different source under an
    /// already-used name is an error (silent aliasing would corrupt
    /// unrelated jobs).
    pub fn stage(&mut self, file: &StageFile) -> io::Result<PathBuf> {
        let local = self.dir.join(&file.name);
        match self.entries.get(&file.name) {
            Some(existing) if existing == &file.source => Ok(local),
            Some(existing) => Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "cache name '{}' already staged from '{existing}', refusing '{}'",
                    file.name, file.source
                ),
            )),
            None => {
                std::fs::copy(&file.source, &local)?;
                self.entries.insert(file.name.clone(), file.source.clone());
                Ok(local)
            }
        }
    }

    /// Stage a whole list (a job's staging manifest).
    pub fn stage_all(&mut self, files: &[StageFile]) -> io::Result<()> {
        files.iter().try_for_each(|f| self.stage(f).map(drop))
    }
}

impl Drop for NodeLocalCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(tag: &str) -> (PathBuf, NodeLocalCache) {
        let base = std::env::temp_dir().join(format!("staging-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let cache = NodeLocalCache::new(base.join("local")).unwrap();
        (base, cache)
    }

    #[test]
    fn stage_copies_once_and_reuses() {
        let (base, mut cache) = setup("once");
        let src = base.join("tool.bin");
        std::fs::write(&src, b"binary").unwrap();
        let f = StageFile::new(src.to_string_lossy().into_owned());
        let p1 = cache.stage(&f).unwrap();
        assert_eq!(std::fs::read(&p1).unwrap(), b"binary");
        assert_eq!(cache.copies(), 1);
        // Second stage of the same file: a hit, no copy.
        let p2 = cache.stage(&f).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(cache.copies(), 1);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn conflicting_names_are_rejected() {
        let (base, mut cache) = setup("conflict");
        let a = base.join("a.dat");
        let b = base.join("b.dat");
        std::fs::write(&a, b"a").unwrap();
        std::fs::write(&b, b"b").unwrap();
        cache
            .stage(&StageFile::named(a.to_string_lossy(), "shared"))
            .unwrap();
        let err = cache
            .stage(&StageFile::named(b.to_string_lossy(), "shared"))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn missing_source_is_an_error() {
        let (base, mut cache) = setup("missing");
        let err = cache.stage(&StageFile::new("/no/such/file")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert_eq!(cache.copies(), 0);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn stage_file_name_derivation() {
        assert_eq!(StageFile::new("/a/b/c.so").name, "c.so");
        assert_eq!(StageFile::named("/a/b.so", "lib.so").name, "lib.so");
    }

    #[test]
    fn stage_all_manifest() {
        let (base, mut cache) = setup("manifest");
        for n in ["x", "y", "z"] {
            std::fs::write(base.join(n), n).unwrap();
        }
        let manifest: Vec<StageFile> = ["x", "y", "z"]
            .iter()
            .map(|n| StageFile::new(base.join(n).to_string_lossy().into_owned()))
            .collect();
        cache.stage_all(&manifest).unwrap();
        assert_eq!(cache.copies(), 3);
        for n in ["x", "y", "z"] {
            assert!(cache.dir().join(n).exists());
        }
        std::fs::remove_dir_all(&base).ok();
    }
}
