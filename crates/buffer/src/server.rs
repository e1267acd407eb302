//! Shared buffer servers for degraded-mode clusters (Section 3).

use crate::pool::BufferPool;
use std::fmt;

/// Identifier of a buffer server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Errors from the buffer-server pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// Every buffer server is already serving a degraded cluster — the
    /// `(K+1)`-st failure has arrived and the Non-clustered scheme suffers
    /// **degradation of service** (the event whose mean time is Eq. 6).
    AllBusy {
        /// Number of servers provisioned (the paper's `K_NC`).
        servers: usize,
    },
    /// The cluster is not currently attached to any server.
    NotAttached {
        /// The cluster in question.
        cluster: u32,
    },
    /// The cluster is already attached to a server.
    AlreadyAttached {
        /// The cluster in question.
        cluster: u32,
        /// The server it is attached to.
        server: ServerId,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::AllBusy { servers } => {
                write!(
                    f,
                    "all {servers} buffer servers busy: degradation of service"
                )
            }
            ServerError::NotAttached { cluster } => {
                write!(f, "cluster {cluster} not attached to a buffer server")
            }
            ServerError::AlreadyAttached { cluster, server } => {
                write!(f, "cluster {cluster} already attached to server {server}")
            }
        }
    }
}

impl std::error::Error for ServerError {}

/// One buffer server: a processor with a buffer pool, able to host a
/// single degraded cluster at a time.
#[derive(Debug, Clone)]
pub struct BufferServer {
    id: ServerId,
    pool: BufferPool,
    serving: Option<u32>,
}

impl BufferServer {
    /// Create a server with `capacity_tracks` of buffer memory.
    #[must_use]
    pub fn new(id: ServerId, capacity_tracks: usize) -> Self {
        BufferServer {
            id,
            pool: BufferPool::bounded(capacity_tracks),
            serving: None,
        }
    }

    /// The server's identity.
    #[must_use]
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The cluster currently being served, if any.
    #[must_use]
    pub fn serving(&self) -> Option<u32> {
        self.serving
    }

    /// The server's buffer pool (degraded-mode schedulers charge their
    /// group buffers here).
    pub fn pool_mut(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    /// Read-only view of the pool.
    #[must_use]
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }
}

/// The farm's pool of `K` shared buffer servers.
///
/// "In a typical system, there might be 100 clusters of 10 disks, but
/// buffer servers for 5 degraded mode clusters would be sufficient as the
/// probability of more than 5 out of the 100 clusters having a failed disk
/// is extremely low."
#[derive(Debug, Clone)]
pub struct BufferServerPool {
    servers: Vec<BufferServer>,
}

impl BufferServerPool {
    /// Provision `k` servers of `capacity_tracks` each (the per-cluster
    /// degraded-mode requirement, `BF_SG / (D'/C)` per Eq. 14).
    #[must_use]
    pub fn new(k: usize, capacity_tracks: usize) -> Self {
        BufferServerPool {
            servers: (0..k)
                .map(|i| BufferServer::new(ServerId(i as u32), capacity_tracks))
                .collect(),
        }
    }

    /// Number of servers provisioned (`K_NC`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether no servers were provisioned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Number of servers currently serving degraded clusters.
    #[must_use]
    pub fn busy(&self) -> usize {
        self.servers.iter().filter(|s| s.serving.is_some()).count()
    }

    /// Attach a newly degraded cluster to a free server.
    ///
    /// An `AllBusy` error is the NC degradation-of-service event.
    pub fn attach(&mut self, cluster: u32) -> Result<ServerId, ServerError> {
        if let Some(s) = self.servers.iter().find(|s| s.serving == Some(cluster)) {
            return Err(ServerError::AlreadyAttached {
                cluster,
                server: s.id,
            });
        }
        match self.servers.iter_mut().find(|s| s.serving.is_none()) {
            Some(s) => {
                s.serving = Some(cluster);
                Ok(s.id)
            }
            None => Err(ServerError::AllBusy {
                servers: self.servers.len(),
            }),
        }
    }

    /// Detach a cluster whose failed disk has been repaired; clears the
    /// server's buffers.
    pub fn detach(&mut self, cluster: u32) -> Result<ServerId, ServerError> {
        match self.servers.iter_mut().find(|s| s.serving == Some(cluster)) {
            Some(s) => {
                s.serving = None;
                s.pool = BufferPool::bounded(s.pool.capacity().unwrap_or(0));
                Ok(s.id)
            }
            None => Err(ServerError::NotAttached { cluster }),
        }
    }

    /// The server attached to `cluster`, if any.
    pub fn server_for(&mut self, cluster: u32) -> Option<&mut BufferServer> {
        self.servers.iter_mut().find(|s| s.serving == Some(cluster))
    }

    /// Iterate over all servers.
    pub fn iter(&self) -> impl Iterator<Item = &BufferServer> {
        self.servers.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_until_exhausted() {
        let mut pool = BufferServerPool::new(2, 100);
        assert_eq!(pool.len(), 2);
        pool.attach(7).unwrap();
        pool.attach(9).unwrap();
        assert_eq!(pool.busy(), 2);
        // Third concurrent degraded cluster: degradation of service.
        assert_eq!(pool.attach(11), Err(ServerError::AllBusy { servers: 2 }));
    }

    #[test]
    fn detach_frees_a_server_and_its_buffers() {
        let mut pool = BufferServerPool::new(1, 50);
        pool.attach(3).unwrap();
        pool.server_for(3).unwrap().pool_mut().charge(20).unwrap();
        pool.detach(3).unwrap();
        assert_eq!(pool.busy(), 0);
        pool.attach(4).unwrap();
        assert_eq!(pool.server_for(4).unwrap().pool().in_use(), 0);
    }

    #[test]
    fn double_attach_rejected() {
        let mut pool = BufferServerPool::new(2, 10);
        let sid = pool.attach(5).unwrap();
        assert_eq!(
            pool.attach(5),
            Err(ServerError::AlreadyAttached {
                cluster: 5,
                server: sid
            })
        );
    }

    #[test]
    fn detach_unattached_rejected() {
        let mut pool = BufferServerPool::new(1, 10);
        assert_eq!(pool.detach(8), Err(ServerError::NotAttached { cluster: 8 }));
    }

    #[test]
    fn zero_servers_always_degrade() {
        let mut pool = BufferServerPool::new(0, 10);
        assert!(pool.is_empty());
        assert_eq!(pool.attach(0), Err(ServerError::AllBusy { servers: 0 }));
    }
}
