//! The system under test: a durable store served by `hpm-server` on
//! loopback from a thread of this process, plus its data directory.

use crate::fleet::store_config;
use hpm_objectstore::{DurabilityConfig, FsyncPolicy, MovingObjectStore};
use hpm_server::{Client, Server, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

/// WAL records per physical write. The disk is shared and not the
/// subject, so the log never fsyncs.
const GROUP_COMMIT: usize = 256;

/// A data directory under the working directory, removed on drop.
pub struct DataDir(PathBuf);

impl DataDir {
    /// A fresh, empty directory `.fleetbench-data/<tag>-<pid>`.
    pub fn fresh(tag: &str) -> DataDir {
        let dir = Path::new(".fleetbench-data").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create benchmark data directory");
        DataDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Total bytes of the files whose names start with `prefix`.
    pub fn bytes_of(&self, prefix: &str) -> u64 {
        std::fs::read_dir(&self.0)
            .expect("list data directory")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
            .map(|e| e.metadata().map_or(0, |m| m.len()))
            .sum()
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent when no other run is using it.
        let _ = std::fs::remove_dir(".fleetbench-data");
    }
}

/// How every store of the benchmark persists.
pub fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        group_commit: GROUP_COMMIT,
        fsync: FsyncPolicy::Never,
        snapshot_every: 0,
    }
}

/// Opens the store on `dir` (recovering whatever is there).
pub fn open_store(dir: &Path) -> MovingObjectStore {
    MovingObjectStore::open(store_config(), durability(dir)).expect("open durable store")
}

/// A store being served on a loopback port.
pub struct Hosted {
    pub store: Arc<MovingObjectStore>,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
    addr: String,
}

impl Hosted {
    pub fn serve(store: MovingObjectStore) -> Hosted {
        let store = Arc::new(store);
        let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default())
            .expect("bind loopback server");
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.serve());
        Hosted {
            store,
            handle,
            thread,
            addr,
        }
    }

    pub fn connect(&self) -> Client {
        Client::connect(&self.addr).expect("connect to loopback server")
    }

    /// Stops the server, waits for its threads, and hands back the
    /// store (the WAL has been flushed by the server's exit path).
    pub fn stop(self) -> MovingObjectStore {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("server thread")
            .expect("clean server exit");
        Arc::try_unwrap(self.store)
            .ok()
            .expect("the stopped server released the store")
    }
}
