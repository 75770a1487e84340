//! [`NetServer`]: a `WireTransport` served over real TCP.
//!
//! The server owns a listener bound to loopback, an accept thread, and a
//! pool of [`NetServerConfig::workers`] socket workers (default: the
//! host's available parallelism). Each accepted connection gets fixed
//! read/write deadlines (`READ_TIMEOUT`/`WRITE_TIMEOUT`, 2 s each), is
//! served at most [`NetServerConfig::max_requests_per_conn`] requests, and
//! is then closed — a deliberate churn source that forces clients to
//! exercise their reconnect path even against an honest server.
//!
//! Admission is bounded: accepted sockets enter a queue of `BACKLOG`
//! (64) slots; when every worker is busy and the
//! queue is full, the newest connection is shed (dropped) rather than
//! queued without bound — load-shedding beats unbounded memory growth, and
//! the client sees an ordinary [`WireError::ConnectionLost`] it already
//! knows how to retry.
//!
//! The wrapped transport sits behind one mutex. That serializes request
//! *dispatch*, matching the `&mut self` contract of `WireTransport` — the
//! concurrency the pool buys is in socket I/O (framing, syscalls,
//! deadlines), which dominates the loopback round trip.
//!
//! [`WireError::ConnectionLost`]: seccloud_core::wire::WireError::ConnectionLost

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use seccloud_cloudsim::rpc::{RpcError, WireTransport};
use seccloud_core::wire::{WireError, WireMessage};

use crate::frame::{read_frame, write_frame};
use crate::proto::{NetRequest, NetResponse};

/// Per-connection read deadline; a peer stalled mid-frame for longer loses
/// its connection.
const READ_TIMEOUT: Duration = Duration::from_millis(2_000);
/// Per-connection write deadline.
const WRITE_TIMEOUT: Duration = Duration::from_millis(2_000);
/// Accepted-connection queue depth; connections beyond it are shed.
const BACKLOG: usize = 64;

/// Tuning for a [`NetServer`]. The deadlines and the admission queue depth
/// are fixed (see the module docs).
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// Requests served on one connection before the server closes it.
    pub max_requests_per_conn: u64,
    /// Socket worker count; `None` means
    /// [`std::thread::available_parallelism`].
    pub workers: Option<usize>,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        Self {
            max_requests_per_conn: 64,
            workers: None,
        }
    }
}

/// Cumulative counters exported by a running server.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetServerStats {
    /// Connections accepted and handed to a worker.
    pub accepted: u64,
    /// Connections shed because the admission queue was full.
    pub shed: u64,
    /// Requests answered (including typed-error responses).
    pub served: u64,
}

struct Shared {
    shutdown: AtomicBool,
    accepted: AtomicU64,
    shed: AtomicU64,
    served: AtomicU64,
}

/// A running TCP front-end over a [`WireTransport`]; dropping the handle
/// (or calling [`NetServer::shutdown`]) stops the accept loop and joins
/// every thread.
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NetServer({})", self.addr)
    }
}

impl NetServer {
    /// Binds `127.0.0.1:0` and starts serving `transport`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure if no loopback port is available.
    pub fn spawn<T>(transport: T, config: NetServerConfig) -> std::io::Result<Self>
    where
        T: WireTransport + Send + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            served: AtomicU64::new(0),
        });
        let transport = Arc::new(Mutex::new(transport));
        let workers = config
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1);
        let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
            std::sync::mpsc::sync_channel(BACKLOG);
        let rx = Arc::new(Mutex::new(rx));

        let mut threads = Vec::with_capacity(workers + 1);
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            let transport = Arc::clone(&transport);
            let config = config.clone();
            threads.push(std::thread::spawn(move || {
                worker_loop(&rx, &shared, &transport, &config);
            }));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                accept_loop(&listener, &tx, &shared);
            }));
        }
        Ok(Self {
            addr,
            shared,
            threads,
        })
    }

    /// The bound loopback address clients should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the server's counters.
    pub fn stats(&self) -> NetServerStats {
        NetServerStats {
            // lint: ordering(Relaxed: monotonic stats counters read for reporting; they guard no other memory)
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            // lint: ordering(Relaxed: monotonic stats counters read for reporting; they guard no other memory)
            shed: self.shared.shed.load(Ordering::Relaxed),
            // lint: ordering(Relaxed: monotonic stats counters read for reporting; they guard no other memory)
            served: self.shared.served.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, drains the workers and joins every thread.
    pub fn shutdown(mut self) -> NetServerStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        // lint: ordering(SeqCst: single shutdown latch observed by accept + worker threads; cost is irrelevant on this path)
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: &TcpListener, tx: &SyncSender<TcpStream>, shared: &Shared) {
    // lint: ordering(SeqCst: shutdown latch; pairs with the store in stop_and_join)
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                match tx.try_send(stream) {
                    Ok(()) => {
                        // lint: ordering(Relaxed: monotonic stats counter; publishes no other memory)
                        shared.accepted.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(TrySendError::Full(conn)) => {
                        // Admission queue full: shed the newcomer. Dropping
                        // the stream closes it; the client classifies the
                        // close as ConnectionLost and retries.
                        drop(conn);
                        // lint: ordering(Relaxed: monotonic stats counter; publishes no other memory)
                        shared.shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn worker_loop<T: WireTransport>(
    rx: &Arc<Mutex<Receiver<TcpStream>>>,
    shared: &Shared,
    transport: &Arc<Mutex<T>>,
    config: &NetServerConfig,
) {
    // lint: ordering(SeqCst: shutdown latch; pairs with the store in stop_and_join)
    while !shared.shutdown.load(Ordering::SeqCst) {
        // Hold the receiver lock only for a non-blocking dequeue: a
        // blocking `recv` under the mutex would park this worker *inside*
        // the critical section, so its peers could not even poll the
        // queue until a connection arrived (the `blocking` lint rejects
        // exactly that shape). Empty-queue waiting happens outside the
        // lock instead, where it stalls nobody.
        let conn = {
            let Ok(guard) = rx.lock() else { return };
            guard.try_recv()
        };
        match conn {
            Ok(stream) => serve_connection(stream, shared, transport, config),
            Err(TryRecvError::Empty) => std::thread::sleep(Duration::from_millis(1)),
            Err(TryRecvError::Disconnected) => return,
        }
    }
}

fn serve_connection<T: WireTransport>(
    mut stream: TcpStream,
    shared: &Shared,
    transport: &Arc<Mutex<T>>,
    config: &NetServerConfig,
) {
    // Deadlines are set here — in the worker, before the first read — so
    // the `deadline` rule can prove every frame op below is covered on
    // *this* stream, rather than trusting the accept thread to have
    // configured the socket before queueing it.
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    for _ in 0..config.max_requests_per_conn.max(1) {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(WireError::FrameTooLarge) => {
                // Length bomb: tell the peer why, then hang up — once the
                // declared length is a lie, frame sync is unrecoverable.
                let resp = NetResponse::Failed(RpcError::Malformed(WireError::FrameTooLarge));
                let _ = write_frame(&mut stream, &resp.to_wire());
                return;
            }
            // Boundary close, deadline, mid-frame cut, desync: nothing
            // sensible can be written back on this socket.
            Err(_) => return,
        };
        let response = match NetRequest::from_wire(&payload) {
            Ok(request) => {
                let Ok(mut t) = transport.lock() else { return };
                // lint: lock(the transport mutex IS the dispatch serialization point — WireTransport is &mut self, so request handling, pairing included, must run under it; per-request work is bounded by the frame cap and the client-side deadline)
                dispatch(&mut *t, request)
            }
            // The frame arrived intact but its payload is garbage — answer
            // with the typed decode error and keep the connection (framing
            // is still synchronized).
            Err(e) => NetResponse::Failed(RpcError::Malformed(e)),
        };
        if write_frame(&mut stream, &response.to_wire()).is_err() {
            return;
        }
        // lint: ordering(Relaxed: monotonic stats counter; publishes no other memory)
        shared.served.fetch_add(1, Ordering::Relaxed);
        // lint: ordering(SeqCst: shutdown latch; pairs with the store in stop_and_join)
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
    // Request cap reached: close. The client reconnects transparently.
}

/// Maps one decoded request onto the wrapped transport.
fn dispatch<T: WireTransport>(t: &mut T, request: NetRequest) -> NetResponse {
    match request {
        NetRequest::Store { owner, body } => match t.rpc_store(&owner, &body) {
            Ok(n) => NetResponse::Stored(n),
            Err(e) => NetResponse::Failed(e),
        },
        NetRequest::Compute {
            owner,
            auditor,
            body,
        } => match t.rpc_compute(&owner, &auditor, &body) {
            Ok((job_id, commitment)) => NetResponse::Computed { job_id, commitment },
            Err(e) => NetResponse::Failed(e),
        },
        NetRequest::Audit {
            owner,
            auditor,
            job_id,
            challenge,
            warrant,
            now,
        } => match t.rpc_audit(&owner, &auditor, job_id, &challenge, &warrant, now) {
            Ok(bytes) => NetResponse::Audited(bytes),
            Err(e) => NetResponse::Failed(e),
        },
        NetRequest::Retrieve { owner, position } => {
            NetResponse::Retrieved(t.rpc_retrieve(&owner, position))
        }
    }
}
