//! # am-serve
//!
//! The long-running optimization service: instead of paying process
//! startup and a cold cache per batch (`amopt`), a daemon (`amserve`)
//! keeps the [`am_pipeline::Pipeline`] engine hot and clients
//! (`amclient`) submit programs over a socket.
//!
//! * [`proto`] — the wire protocol: 4-byte length-prefixed JSON frames,
//!   id-tagged requests so responses can be pipelined and delivered out
//!   of order. Zero dependencies: frames go through `am-trace`'s JSON
//!   codec.
//! * [`net`] — localhost TCP and unix-domain sockets behind one
//!   [`net::Endpoint`] syntax.
//! * [`diskcache`] — the persistent content-addressed result cache
//!   (write-temp-then-rename entries keyed by stable program hash, LRU
//!   within a byte budget), layered under the in-memory cache via
//!   [`am_pipeline::SecondaryCache`]. Results survive daemon restarts.
//! * [`server`] — the daemon core: per-connection reader threads, a
//!   shared worker pool, round-robin fairness with bounded per-connection
//!   queues (`busy` backpressure), single-flight coalescing of identical
//!   concurrent jobs, live metrics, graceful drain on shutdown.
//! * [`client`] — the client library: synchronous helpers plus pipelined
//!   submit/recv.
//! * [`metrics`] — the live aggregate behind the `stats` request.
//!
//! See `docs/SERVICE.md` for the protocol reference and operational
//! guide; `bench_service` (in this crate) measures throughput, dedup
//! ratio and latency percentiles under concurrent clients.

pub mod client;
pub mod diskcache;
pub mod metrics;
pub mod net;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError};
pub use diskcache::{DiskCache, DiskCacheConfig};
pub use net::{Endpoint, NetListener, NetStream};
pub use proto::{Reply, Request, ResultPayload, StatsSnapshot};
pub use server::{Server, ServerConfig};
