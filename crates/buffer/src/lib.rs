//! # mms-buffer — buffer memory substrate
//!
//! Main-memory buffering is a first-class cost in *Berson, Golubchik &
//! Muntz (SIGMOD 1995)*: every scheme's evaluation includes a "Buffers (in
//! tracks)" row, and the Non-clustered scheme's whole point is that "much
//! memory could be saved if a lower level of fault tolerance were
//! acceptable".
//!
//! Two pieces:
//!
//! * [`BufferPool`] — a track-granular buffer pool with high-water
//!   tracking. Schedulers charge each stream's read-ahead against a pool
//!   (and keep who holds what themselves); the peak occupancy *is* the
//!   scheme's buffer requirement (this is how Figure 4 and the `BF_p` rows are
//!   measured rather than just computed).
//! * [`BufferServerPool`] — Section 3's shared **buffer servers**: "one or
//!   more extra processors containing a buffer pool to help handle
//!   clusters operating in degraded mode. … A cluster in degraded mode
//!   sends the data read from the disk to the buffer server and the buffer
//!   server takes care of creating the missing data by parity computation
//!   and delivering the data on time." Exhausting the servers on a further
//!   failure is precisely the NC scheme's *degradation of service* event
//!   (Eq. 6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod server;

pub use pool::{BufferError, BufferPool, OwnerId};
pub use server::{BufferServer, BufferServerPool, ServerError, ServerId};
