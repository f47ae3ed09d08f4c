//! Minimal epoll bindings — just enough of the Linux readiness API
//! for one single-threaded reactor, called through `extern "C"`
//! declarations against the libc that `std` already links. No crate
//! dependency, no coverage of anything the reactor does not use.

use std::io;
use std::os::unix::io::RawFd;

/// Readable.
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported; no need to register).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported; no need to register).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;

/// One readiness record. On x86-64 the kernel ABI packs this struct
/// (no padding between `events` and `data`); the `cfg_attr` mirrors
/// that, and other architectures use the natural C layout, matching
/// their kernel headers.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready event mask (`EPOLLIN` | …).
    pub events: u32,
    /// Caller-chosen token, returned verbatim.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// An owned epoll instance.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall wrapper; no pointers involved.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Start watching `fd` for `events`, tagging readiness with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change the watched event set for `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Stop watching `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // Pre-2.6.9 kernels required a non-null event for DEL; passing
        // one unconditionally is harmless everywhere.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait up to `timeout_ms` for readiness; fills `out` and returns
    /// the number of ready records. `EINTR` is reported as zero ready
    /// events rather than an error — the reactor just loops.
    pub fn wait(&self, out: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `out` is a valid, writable slice for the whole call.
        let rc = unsafe { epoll_wait(self.fd, out.as_mut_ptr(), out.len() as i32, timeout_ms) };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(rc as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: fd is owned by this instance and closed exactly once.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn epoll_reports_readability() {
        let ep = Epoll::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        ep.add(b.as_raw_fd(), EPOLLIN, 42).unwrap();

        let mut evs = [EpollEvent { events: 0, data: 0 }; 8];
        // Nothing written yet: a zero-timeout wait sees nothing.
        assert_eq!(ep.wait(&mut evs, 0).unwrap(), 0);

        a.write_all(b"x").unwrap();
        let n = ep.wait(&mut evs, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = evs[0];
        assert_eq!({ ev.data }, 42);
        assert_ne!({ ev.events } & EPOLLIN, 0);

        ep.delete(b.as_raw_fd()).unwrap();
        a.write_all(b"y").unwrap();
        assert_eq!(ep.wait(&mut evs, 0).unwrap(), 0, "deleted fd stays silent");
    }
}
