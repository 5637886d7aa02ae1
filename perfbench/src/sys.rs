//! The libc calls std does not wrap: `ppoll(2)` for the one-thread load
//! generator, `setsockopt(SO_SNDBUF)` to pin its send buffers, and
//! `clock_gettime` on the process and thread CPU-time clocks.
//! Linux/x86-64 layouts; std already links libc, so no crate is needed.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_long, c_ulong};

/// Readable.
pub const POLLIN: i16 = 0x001;
/// Writable.
pub const POLLOUT: i16 = 0x004;
/// Error condition (always reported).
pub const POLLERR: i16 = 0x008;
/// Hang-up (always reported).
pub const POLLHUP: i16 = 0x010;

/// `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// Descriptor to watch.
    pub fd: RawFd,
    /// Requested events.
    pub events: i16,
    /// Returned events.
    pub revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const SOL_SOCKET: c_int = 1;
const SO_SNDBUF: c_int = 7;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const u8,
    ) -> c_int;
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_int, len: u32) -> c_int;
}

/// Pins a socket's send buffer at `bytes` (the kernel doubles it for
/// bookkeeping), which also turns off send-buffer autotuning.
pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    let value = c_int::try_from(bytes).map_err(|_| io::Error::other("send buffer too large"))?;
    // SAFETY: `value` is a valid `int` that outlives the call and `len`
    // is its exact size; an invalid `fd` only makes the call fail.
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_SNDBUF,
            &value,
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Waits until one of `fds` is ready or `timeout_ns` elapses. Returns
/// the number of ready descriptors; `EINTR` reads as zero ready.
pub fn poll_fds(fds: &mut [PollFd], timeout_ns: u64) -> io::Result<usize> {
    let timeout = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000).min(i32::MAX as u64) as c_long,
        tv_nsec: (timeout_ns % 1_000_000_000) as c_long,
    };
    // SAFETY: `fds` is a valid, exclusively borrowed slice of
    // `#[repr(C)]` pollfd records and `nfds` is exactly its length, so
    // the kernel reads and writes only inside it; `timeout` is a valid
    // timespec that outlives the call; a null signal mask leaves the
    // mask unchanged.
    let n = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &timeout,
            std::ptr::null(),
        )
    };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(e);
    }
    Ok(n as usize)
}

/// CPU time consumed by every thread of this process so far, in
/// nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`; the clock id
    // is one of the CPU-time clocks the kernel always supports.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}
