//! The I/O core both network tiers run on: one thread sleeps in `poll(2)`
//! until a socket is ready, a timer is due or another thread wakes it.
//! `sys` — declarations of `poll`, `socket`, `connect` and `nice`
//! (the standard library links the C library) — is the crate's only
//! unsafe code; the crate root denies it everywhere else.
//!
//! A peer that falls behind is slowed, not cut off: past [`HIGH_WATER`]
//! unsent bytes its connection is not read, so nothing more is admitted
//! from it, and only a peer that takes none of its output for
//! [`STALL_LIMIT`] is dropped.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::BytesMut;

use crate::protocol::{append_frame, FrameReader, Request, Response};
use crate::Result;

/// The C declarations, and the socket ABI constants and address layouts
/// they take — Linux's, as on x86_64 and aarch64 (MIPS, SPARC and Alpha
/// number `SOCK_NONBLOCK` and `EINPROGRESS` differently, so other targets
/// are refused at compile time).
#[allow(unsafe_code)]
mod sys {
    use std::ffi::{c_int, c_short, c_ulong, c_void};
    use std::io;
    use std::net::{SocketAddr, TcpStream};
    use std::os::fd::FromRawFd;

    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    compile_error!("the I/O shim declares Linux's socket ABI for x86_64 and aarch64 only");

    /// `struct pollfd`.
    #[repr(C)]
    pub(super) struct PollFd {
        pub(super) fd: c_int,
        pub(super) events: c_short,
        pub(super) revents: c_short,
    }

    pub(super) const POLLIN: c_short = 0x1;
    pub(super) const POLLOUT: c_short = 0x4;
    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const SOCK_STREAM_NONBLOCK_CLOEXEC: c_int = 1 | 0o4000 | 0o2_000_000;
    const EINPROGRESS: i32 = 115;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        fn nice(inc: c_int) -> c_int;
    }

    /// `nice(3)`: adds `inc` to the calling thread's nice value, which the
    /// kernel clamps to 19. The C library reads the value and sets it back
    /// with `getpriority`/`setpriority(2)` on process id 0, and Linux keeps
    /// a nice value per thread, so only the caller moves.
    pub(super) fn add_own_nice(inc: c_int) {
        // SAFETY: a library call taking a plain integer. Its result is
        // not read: -1 is both a valid nice value and the error return.
        unsafe { nice(inc) };
    }

    /// `poll(2)`; a negative `timeout_ms` waits without limit.
    pub(super) fn wait(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<()> {
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `pollfd`s and `nfds` is its length, so the kernel reads and
        // writes only memory the slice owns, and only during the call.
        if unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Opens a nonblocking TCP socket and starts connecting it to `addr`.
    pub(super) fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
        // `sockaddr_in` or `sockaddr_in6`: family, port, v4 address and 8
        // zero bytes, or flow info, v6 address and scope.
        let mut sa = [0u8; 28];
        sa[2..4].copy_from_slice(&addr.port().to_be_bytes());
        let (family, len) = match addr {
            SocketAddr::V4(a) => {
                sa[4..8].copy_from_slice(&a.ip().octets());
                (AF_INET, 16)
            }
            SocketAddr::V6(a) => {
                sa[4..8].copy_from_slice(&a.flowinfo().to_ne_bytes());
                sa[8..24].copy_from_slice(&a.ip().octets());
                sa[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
                (AF_INET6, 28)
            }
        };
        sa[..2].copy_from_slice(&family.to_ne_bytes());
        // SAFETY: a system call taking plain integers.
        let fd = unsafe { socket(c_int::from(family), SOCK_STREAM_NONBLOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is the open socket `socket` just returned, owned by
        // nothing else; the stream takes sole ownership and closes it on
        // drop, the error path below included.
        let stream = unsafe { TcpStream::from_raw_fd(fd) };
        // SAFETY: `sa` holds an initialised socket address of `len` bytes
        // (the kernel requires no alignment of it) and outlives the call.
        if unsafe { connect(fd, sa.as_ptr().cast::<c_void>(), len) } < 0 {
            let e = io::Error::last_os_error();
            if e.raw_os_error() != Some(EINPROGRESS) {
                return Err(e);
            }
        }
        Ok(stream)
    }
}

/// What a loop waits on: its wake, its listener and the sockets it adds
/// each pass, each with the caller's token. Rebuilt every pass, so it
/// cannot go stale.
pub(crate) struct Poller<T> {
    /// `fds[0]` is the wake's socket, `fds[1]` the listener's (-1, which
    /// `poll` skips, while it pauses or once closed); `tokens[i]` belongs
    /// to `fds[i + 2]`.
    fds: Vec<sys::PollFd>,
    tokens: Vec<T>,
    wake: Arc<Wake>,
    /// `None` once the loop stops accepting.
    pub(crate) listener: Option<TcpListener>,
    /// After accepting failed for lack of resources, the listener sits
    /// out until then: its pending connection keeps it readable, and the
    /// loop would spin.
    paused_until: Option<Instant>,
    /// The earliest stall limit among this pass's connections.
    due: Option<Instant>,
}

/// How long a listener sits out after accepting failed.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

impl<T: Copy> Poller<T> {
    fn new(wake: Arc<Wake>, listener: TcpListener) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let fd = |fd| sys::PollFd {
            fd,
            events: sys::POLLIN,
            revents: 0,
        };
        let fds = vec![fd(wake.rx.as_raw_fd()), fd(listener.as_raw_fd())];
        Ok(Poller {
            fds,
            tokens: Vec::new(),
            wake,
            listener: Some(listener),
            paused_until: None,
            due: None,
        })
    }

    /// Empties the set for the next pass.
    pub(crate) fn clear(&mut self) {
        self.fds.truncate(2);
        self.tokens.clear();
        self.due = None;
        self.paused_until = self.paused_until.filter(|&t| Instant::now() < t);
        let listening = self
            .listener
            .as_ref()
            .filter(|_| self.paused_until.is_none());
        self.fds[1].fd = listening.map_or(-1, AsRawFd::as_raw_fd);
    }

    /// Watches `fd` (hang-ups and errors are always reported).
    pub(crate) fn add(&mut self, fd: &impl AsRawFd, read: bool, write: bool, token: T) {
        let events = if read { sys::POLLIN } else { 0 } | if write { sys::POLLOUT } else { 0 };
        self.fds.push(sys::PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        });
        self.tokens.push(token);
    }

    /// Blocks until a socket is ready, `timeout` passes (`None`: never), a
    /// registered connection's stall limit is due or the wake fires — at
    /// once if it fired since the loop last looked. A signal ends the wait
    /// early.
    pub(crate) fn wait(&mut self, timeout: Option<Duration>) {
        let now = Instant::now();
        let timers = [self.paused_until, self.due].into_iter().flatten();
        let timeout = if self.wake.park() {
            let timers = timers.map(|t| t.saturating_duration_since(now));
            timers.chain(timeout).min()
        } else {
            Some(Duration::ZERO)
        };
        // Rounded up, or the loop would spin until its timer is due.
        let ms = timeout.map_or(-1, |t| {
            t.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
        });
        for fd in &mut self.fds {
            fd.revents = 0;
        }
        let _ = sys::wait(&mut self.fds, ms);
        self.wake.unpark(self.fds[0].revents != 0);
    }

    /// Marks the wake-ups so far as seen: the loop is about to look at
    /// what its wakers announce. One from here on ends the next wait at
    /// once.
    pub(crate) fn reset_wake(&self) {
        self.wake.unpark(false);
    }

    pub(crate) fn wake(&self) -> &Arc<Wake> {
        &self.wake
    }

    /// Tokens of the sockets the last wait found ready.
    pub(crate) fn ready(&self) -> impl Iterator<Item = T> + '_ {
        let fired = self.fds[2..].iter().map(|fd| fd.revents != 0);
        self.tokens
            .iter()
            .zip(fired)
            .filter_map(|(&t, f)| f.then_some(t))
    }

    /// Accepts every connection pending, if the last wait found any.
    pub(crate) fn accept(&mut self, mut on_accept: impl FnMut(TcpStream)) {
        let Some(listener) = self.listener.as_ref().filter(|_| self.fds[1].revents != 0) else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => on_accept(stream),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return self.paused_until = Some(Instant::now() + ACCEPT_BACKOFF),
            }
        }
    }
}

const RUNNING: u8 = 0;
const PARKED: u8 = 1;
const NOTIFIED: u8 = 2;

/// Wakes a loop out of [`Poller::wait`] from other threads through a
/// socket pair — writing only while the loop is parked, so waking a
/// running loop costs one atomic swap and no system call.
#[derive(Debug)]
pub(crate) struct Wake {
    rx: UnixStream,
    tx: UnixStream,
    /// `RUNNING`, `PARKED` or `NOTIFIED`, always `SeqCst`: a waker sends
    /// before its swap and the loop parks before it looks, so either the
    /// waker sees `PARKED` and writes, or the loop's look finds the send.
    state: AtomicU8,
}

impl Wake {
    fn new() -> io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        let state = AtomicU8::new(RUNNING);
        Ok(Wake { rx, tx, state })
    }

    /// Tells the loop there is something to look at.
    pub(crate) fn wake(&self) {
        if self.state.swap(NOTIFIED, Ordering::SeqCst) == PARKED {
            // A full socket already holds a wake-up.
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// `true` if the loop may block, `false` if woken since it looked.
    fn park(&self) -> bool {
        self.state
            .compare_exchange(RUNNING, PARKED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Empties the socket if it `fired`; whether woken since last looked.
    fn unpark(&self, fired: bool) -> bool {
        if fired {
            let mut sink = [0u8; 64];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n == sink.len()) {}
        }
        self.state.swap(RUNNING, Ordering::SeqCst) == NOTIFIED
    }
}

/// A loop's thread, its stop flag and its wake; dropping it stops the
/// loop and joins the thread.
#[derive(Debug)]
pub(crate) struct LoopThread {
    stop: Arc<AtomicBool>,
    wake: Arc<Wake>,
    thread: Option<JoinHandle<()>>,
}

impl LoopThread {
    /// Runs `run` on a thread named `name`, with a poller on `listener`.
    pub(crate) fn spawn<T: Copy + Send + 'static>(
        name: &str,
        listener: TcpListener,
        run: impl FnOnce(Poller<T>, &AtomicBool) + Send + 'static,
    ) -> io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let wake = Arc::new(Wake::new()?);
        let poller = Poller::new(Arc::clone(&wake), listener)?;
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || run(poller, &flag))?;
        Ok(LoopThread {
            stop,
            wake,
            thread: Some(thread),
        })
    }

    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for LoopThread {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Unsent bytes past which a connection is [`Conn::backlogged`]: its
/// peer gets no more work admitted, and no more stream chunks decoded,
/// until it takes what it already asked for.
pub(crate) const HIGH_WATER: usize = 1 << 20;

/// How long a peer may take none of the output queued for it before its
/// connection is dropped — a peer that reads at all, however slowly, is
/// kept.
pub(crate) const STALL_LIMIT: Duration = Duration::from_secs(5);

/// Frames queued whole, flushed as far as the socket takes per pass from
/// a partial-write cursor; capacity is kept, so the steady state
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct WriteBuf {
    buf: BytesMut,
    pos: usize,
}

impl WriteBuf {
    pub(crate) fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Appends `[len | payload]` verbatim.
    pub(crate) fn push_frame(&mut self, payload: &[u8]) {
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(payload);
    }

    /// Appends `[len | payload]` with the 8 ID bytes at `id_at` (in the
    /// payload) rewritten to `id`: the router's zero-decode forwarding.
    pub(crate) fn push_frame_with_id(&mut self, payload: &[u8], id_at: usize, id: u64) {
        let base = self.buf.len() + 4 + id_at;
        self.push_frame(payload);
        self.buf[base..base + 8].copy_from_slice(&id.to_le_bytes());
    }

    /// Appends a response frame — or, where the wire cannot carry it (a
    /// name past the string limit), an `Error` under the same ID, so the
    /// peer still gets an answer.
    pub(crate) fn push_response(&mut self, response: &Response) -> Result<()> {
        append_frame(&mut self.buf, |b| response.encode_into(b)).or_else(|e| {
            let fallback = Response::Error {
                request_id: response.request_id(),
                message: e.to_string(),
            };
            append_frame(&mut self.buf, |b| fallback.encode_into(b))
        })
    }

    /// Appends a control request frame, which always encodes.
    pub(crate) fn push_control(&mut self, request: &Request) {
        append_frame(&mut self.buf, |b| request.encode_into(b)).expect("a control frame encodes");
    }

    /// Writes as much as `w` takes without blocking.
    fn flush(&mut self, mut w: impl Write) -> io::Result<()> {
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(())
    }
}

/// One nonblocking connection, with its inbound and outbound frames.
#[derive(Debug)]
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    reader: FrameReader,
    pub(crate) out: WriteBuf,
    /// Since when the peer has taken none of its queued output.
    stalled: Option<Instant>,
}

impl Conn {
    /// Takes over a socket: nonblocking, and with Nagle off — a kernel
    /// holding a whole frame back for the peer's delayed ACK pins
    /// small-frame latency at ~40 ms.
    pub(crate) fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let (reader, out) = (FrameReader::new(), WriteBuf::default());
        Ok(Conn {
            stream,
            reader,
            out,
            stalled: None,
        })
    }

    /// Adds the socket to `poller`, for writing while output is queued,
    /// and its stall limit to the poller's timers.
    pub(crate) fn register<T: Copy>(&self, poller: &mut Poller<T>, read: bool, token: T) {
        poller.add(&self.stream, read, self.out.pending() > 0, token);
        if let Some(since) = self.stalled {
            let due = since + STALL_LIMIT;
            poller.due = Some(poller.due.map_or(due, |d| d.min(due)));
        }
    }

    /// More than [`HIGH_WATER`] unsent: a peer's connection not to read.
    pub(crate) fn backlogged(&self) -> bool {
        self.out.pending() > HIGH_WATER
    }

    /// Hands each frame ready to `on_frame`, with the write buffer for its
    /// answers; `Ok(false)` when `on_frame` closes, `Err` when the peer
    /// hung up or broke framing. Reading stops once a frame is yielded:
    /// `poll` is level-triggered, so bytes left bring the loop back, and a
    /// peer that keeps sending cannot hold the loop.
    pub(crate) fn read_frames(
        &mut self,
        mut on_frame: impl FnMut(&[u8], &mut WriteBuf) -> bool,
    ) -> Result<bool> {
        let mut socket = OnePass(Some(&self.stream));
        while let Some(frame) = self.reader.read_frame_ref(&mut socket)? {
            socket.0 = None;
            if !on_frame(frame, &mut self.out) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Writes what it can; `Err` when the socket fails or the peer has
    /// taken none of its output for [`STALL_LIMIT`]. The limit is judged
    /// before writing: whatever the kernel takes at the due time is room
    /// it found on its own (a receive buffer growing, say), not proof the
    /// peer reads. A peer that reads frees room, `POLLOUT` brings the loop
    /// back to write into it, and any write restarts the clock.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        if self.stalled.is_some_and(|t| t.elapsed() >= STALL_LIMIT) {
            let unread = self.out.pending();
            let reason =
                format!("stalled reader: {unread} bytes unread, none taken in {STALL_LIMIT:?}");
            return Err(io::Error::other(reason));
        }
        let queued = self.out.pending();
        self.out.flush(&self.stream)?;
        let unread = self.out.pending();
        if unread == 0 || unread < queued {
            self.stalled = None;
        } else {
            self.stalled.get_or_insert_with(Instant::now);
        }
        Ok(())
    }
}

/// The socket while it may still be read this pass; `WouldBlock` after.
struct OnePass<'a>(Option<&'a TcpStream>);

impl Read for OnePass<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.0 {
            Some(mut stream) => stream.read(buf),
            None => Err(io::ErrorKind::WouldBlock.into()),
        }
    }
}

/// How many nice steps the threads that run forward passes sit below the
/// thread that spawns them: a hit the poll loop can answer from cache, or
/// a reply it can write, should not wait for the scheduler to take the
/// CPU from a forward pass. Ten steps below the loop, a busy compute
/// thread gets about a tenth of a contended CPU's share against it. Nice
/// ranks the thread below every other task on the host as well, a
/// client on the same CPU included.
const COMPUTE_NICE_STEPS: i32 = 10;

/// Raises the calling thread's nice value by [`COMPUTE_NICE_STEPS`],
/// relative to what it inherited, so the steps hold whatever nice the
/// process was started at; threads it spawns afterwards inherit the
/// result. Raising one's own nice needs no privilege. The kernel caps
/// nice at 19, so a process started at 10 or more gets fewer steps, and
/// one started at 19 none.
pub(crate) fn yield_to_io_loop() {
    sys::add_own_nice(COMPUTE_NICE_STEPS);
}

/// Starts a TCP connect without blocking; a refused or unreachable peer
/// surfaces as an error on the connection's first read or flush.
pub(crate) fn dial(addr: SocketAddr) -> io::Result<Conn> {
    Conn::new(sys::connect_nonblocking(addr)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poller(wake: &Arc<Wake>) -> Poller<()> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        Poller::new(Arc::clone(wake), listener).unwrap()
    }

    #[test]
    fn write_buf_survives_partial_writes() {
        let mut wb = WriteBuf::default();
        wb.push_frame(b"hello");
        wb.push_frame_with_id(&[0u8; 12], 2, 0x0102_0304_0506_0708);
        // A writer that takes 3 bytes per call, then blocks forever.
        struct Dribble {
            taken: Vec<u8>,
            calls: usize,
        }
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.calls += 1;
                if self.calls > 4 {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(3);
                self.taken.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Dribble {
            taken: Vec::new(),
            calls: 0,
        };
        wb.flush(&mut w).unwrap();
        assert_eq!(w.taken.len(), 12);
        assert!(wb.pending() > 0);
        // Unblock: the rest drains and the buffer resets.
        while wb.pending() > 0 {
            w.calls = 0;
            wb.flush(&mut w).unwrap();
        }
        assert_eq!(&w.taken[..4], &5u32.to_le_bytes());
        assert_eq!(&w.taken[4..9], b"hello");
        assert_eq!(&w.taken[9..13], &12u32.to_le_bytes());
        let mut expect = [0u8; 12];
        expect[2..10].copy_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(&w.taken[13..], &expect);
        assert_eq!(wb.buf.len(), 0);
    }

    #[test]
    fn a_wake_writes_only_to_a_parked_loop() {
        let wake = Wake::new().unwrap();
        let written = || (&wake.rx).read(&mut [0u8; 8]).unwrap_or(0);
        // Running: the wake is a flag, and the loop is told not to block.
        wake.wake();
        assert_eq!(written(), 0);
        assert!(!wake.park());
        assert!(wake.unpark(false));
        // Parked: the first wake writes one byte, a second nothing more.
        assert!(wake.park());
        wake.wake();
        wake.wake();
        assert_eq!(written(), 1);
        assert!(wake.unpark(false));
        // Nothing since.
        assert!(wake.park());
        assert!(!wake.unpark(false));
    }

    #[test]
    fn a_wake_from_another_thread_ends_a_wait() {
        let wake = Arc::new(Wake::new().unwrap());
        let mut poller = poller(&wake);
        let waker = std::thread::spawn(move || wake.wake());
        let asked = Instant::now();
        poller.wait(Some(Duration::from_secs(10)));
        assert!(asked.elapsed() < Duration::from_secs(5));
        waker.join().unwrap();
        // That wake-up is used up: the next wait runs to its timeout.
        let asked = Instant::now();
        poller.wait(Some(Duration::from_millis(20)));
        assert!(asked.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn dial_reports_a_refused_connect_on_first_use() {
        // A port that was just bound and released refuses connections.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let mut conn = dial(addr).unwrap();
        let mut poller = poller(&Arc::new(Wake::new().unwrap()));
        conn.out
            .push_control(&Request::ListModels { request_id: 1 });
        conn.register(&mut poller, true, ());
        poller.wait(Some(Duration::from_secs(10)));
        assert_eq!(poller.ready().count(), 1);
        assert!(conn.read_frames(|_, _| true).is_err());
    }

    #[test]
    fn dialled_connections_carry_frames_both_ways() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = dial(listener.local_addr().unwrap()).unwrap();
        conn.out.push_frame(b"ping");
        let mut peer = Conn::new(listener.accept().unwrap().0).unwrap();
        let mut poller = poller(&Arc::new(Wake::new().unwrap()));
        let mut got = Vec::new();
        while got.is_empty() {
            conn.flush().unwrap();
            poller.clear();
            peer.register(&mut poller, true, ());
            poller.wait(Some(Duration::from_secs(10)));
            peer.read_frames(|frame, out| {
                got.extend_from_slice(frame);
                out.push_frame(b"pong");
                true
            })
            .unwrap();
        }
        assert_eq!(got, b"ping");
        peer.flush().unwrap();
        got.clear();
        while got.is_empty() {
            poller.clear();
            conn.register(&mut poller, true, ());
            poller.wait(Some(Duration::from_secs(10)));
            conn.read_frames(|frame, _| {
                got.extend_from_slice(frame);
                true
            })
            .unwrap();
        }
        assert_eq!(got, b"pong");
    }

    #[test]
    fn only_a_peer_that_takes_nothing_is_dropped() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = dial(listener.local_addr().unwrap()).unwrap();
        let mut peer = listener.accept().unwrap().0;
        // More than the socket buffers hold, so some of it stays queued.
        conn.out.push_frame(&vec![7u8; 16 << 20]);
        while conn.stalled.is_none() {
            conn.flush().unwrap();
        }
        assert!(conn.backlogged());
        // Its stall limit is one of the poller's timers.
        let mut poller = poller(&Arc::new(Wake::new().unwrap()));
        conn.register(&mut poller, false, ());
        assert_eq!(poller.due, conn.stalled.map(|t| t + STALL_LIMIT));
        // A peer that reads at all stops the clock...
        peer.read_exact(&mut vec![0u8; 1 << 20]).unwrap();
        while conn.stalled.is_some() {
            conn.flush().unwrap();
        }
        // ...and one that took nothing for the whole limit is dropped.
        while conn.stalled.is_none() {
            conn.flush().unwrap();
        }
        conn.stalled = Some(Instant::now() - STALL_LIMIT);
        let err = conn.flush().unwrap_err();
        assert!(err.to_string().contains("stalled reader"), "{err}");
    }

    #[test]
    fn at_the_due_time_the_limit_is_judged_before_writing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = dial(listener.local_addr().unwrap()).unwrap();
        let mut peer = listener.accept().unwrap().0;
        conn.out.push_frame(&vec![7u8; 16 << 20]);
        while conn.stalled.is_none() {
            conn.flush().unwrap();
        }
        // Room in the socket at the due time, with no write since the
        // clock started: the kernel would take bytes now (a receive
        // buffer that grew does the same for a peer that reads nothing).
        peer.read_exact(&mut vec![0u8; 1 << 20]).unwrap();
        conn.stalled = Some(Instant::now() - STALL_LIMIT);
        let err = conn.flush().unwrap_err();
        assert!(err.to_string().contains("stalled reader"), "{err}");
    }
}
