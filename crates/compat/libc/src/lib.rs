//! Minimal, API-compatible subset of the `libc` crate (Linux only).
//!
//! Only the symbols this workspace uses are provided. To stay independent
//! of the platform's C struct layouts, the file-descriptor calls (`shm_open`,
//! `ftruncate`, `fstat`, `close`, `shm_unlink`) are implemented in Rust on top
//! of `std::fs` against `/dev/shm` — the same object namespace glibc's
//! `shm_open` uses — and the [`stat`] struct carries only the fields callers
//! read. `mmap`/`munmap` have stable, layout-free signatures and are linked
//! from the system C library directly.
//!
//! For the `hb-net` event-driven collector the shim additionally exposes the
//! Linux readiness API: [`epoll_create1`], [`epoll_ctl`], [`epoll_wait`]
//! (with the kernel's packed [`epoll_event`] layout) and [`fcntl`] with
//! `F_GETFL`/`F_SETFL`/[`O_NONBLOCK`], linked from the system C library, and
//! [`eventfd`] for cross-thread wake-ups of a thread parked in `epoll_wait`.

#![allow(non_camel_case_types)]

use std::ffi::CStr;
use std::fs::OpenOptions;
use std::io;
use std::mem::ManuallyDrop;
use std::os::fd::{FromRawFd, IntoRawFd};
use std::os::unix::fs::OpenOptionsExt;

pub use std::ffi::c_void;

/// C `char`.
pub type c_char = i8;
/// C `int`.
pub type c_int = i32;
/// POSIX file-mode type.
pub type mode_t = u32;
/// POSIX file-offset type.
pub type off_t = i64;

/// Open flag: create the object if it does not exist.
pub const O_CREAT: c_int = 0o100;
/// Open flag: read-write access.
pub const O_RDWR: c_int = 0o2;
/// Mode bit: owner may read.
pub const S_IRUSR: c_int = 0o400;
/// Mode bit: owner may write.
pub const S_IWUSR: c_int = 0o200;
/// Mapping protection: pages may be read.
pub const PROT_READ: c_int = 1;
/// Mapping protection: pages may be written.
pub const PROT_WRITE: c_int = 2;
/// Mapping flag: updates are visible to other processes.
pub const MAP_SHARED: c_int = 1;
/// Sentinel returned by `mmap` on failure.
pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

/// File metadata as returned by [`fstat`]. Only the fields this workspace
/// reads are present; the layout is private to this shim (its own `fstat`
/// fills it in), so it need not match the kernel's struct.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
pub struct stat {
    /// Size of the file in bytes.
    pub st_size: off_t,
    /// File mode bits.
    pub st_mode: mode_t,
}

/// `fcntl` command: read the file-status flags.
pub const F_GETFL: c_int = 3;
/// `fcntl` command: set the file-status flags.
pub const F_SETFL: c_int = 4;
/// Status flag: non-blocking I/O.
pub const O_NONBLOCK: c_int = 0o4000;

/// `epoll_ctl` op: register a new file descriptor.
pub const EPOLL_CTL_ADD: c_int = 1;
/// `epoll_ctl` op: unregister a file descriptor.
pub const EPOLL_CTL_DEL: c_int = 2;
/// `epoll_ctl` op: change the registration of a file descriptor.
pub const EPOLL_CTL_MOD: c_int = 3;
/// Readiness: the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// Readiness: an error condition is pending.
pub const EPOLLERR: u32 = 0x008;
/// Readiness: hang-up (peer closed its end).
pub const EPOLLHUP: u32 = 0x010;
/// Readiness: the peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// `epoll_create1` flag: close the epoll fd on `exec`.
pub const EPOLL_CLOEXEC: c_int = 0o2000000;
/// `eventfd` flag: non-blocking reads and writes.
pub const EFD_NONBLOCK: c_int = 0o4000;
/// `eventfd` flag: close the eventfd on `exec`.
pub const EFD_CLOEXEC: c_int = 0o2000000;

/// One readiness event, in the kernel's wire layout.
///
/// The kernel packs this struct **only on x86-64** (`EPOLL_PACKED`): 12
/// bytes, no padding between `events` and the user data word. Every other
/// architecture uses the natural layout (16 bytes with 4 bytes of padding).
/// The shim must match exactly, or `epoll_wait` filling an array of these
/// would overrun the buffer / return garbage tokens.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy, Default)]
pub struct epoll_event {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// Caller-owned token returned verbatim with each event.
    pub u64: u64,
}

/// One scatter/gather segment for [`readv`]/[`writev`], in the kernel's
/// layout (`struct iovec`): a base pointer plus a length. The layout is
/// identical on every Linux ABI this workspace targets, so a plain
/// `#[repr(C)]` matches.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct iovec {
    /// Start of the buffer segment.
    pub iov_base: *mut c_void,
    /// Length of the buffer segment in bytes.
    pub iov_len: usize,
}

extern "C" {
    /// Creates an epoll instance; returns its file descriptor or -1.
    pub fn epoll_create1(flags: c_int) -> c_int;

    /// Scatter-read into `iovcnt` buffers with one syscall; returns bytes
    /// read, 0 at EOF, or -1.
    pub fn readv(fd: c_int, iov: *const iovec, iovcnt: c_int) -> isize;

    /// Gather-write from `iovcnt` buffers with one syscall; returns bytes
    /// written or -1.
    pub fn writev(fd: c_int, iov: *const iovec, iovcnt: c_int) -> isize;

    /// Adds, modifies or removes `fd` in the interest list of `epfd`.
    pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;

    /// Waits up to `timeout` ms for readiness events; returns the number of
    /// events written to `events`, 0 on timeout, or -1 (with `EINTR` among
    /// the possible errnos).
    pub fn epoll_wait(
        epfd: c_int,
        events: *mut epoll_event,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;

    /// Creates an eventfd counter starting at `initval`; returns its file
    /// descriptor or -1. A `write` of a native-endian `u64` adds to the
    /// counter and makes the fd readable; a `read` returns the counter and
    /// resets it to zero.
    pub fn eventfd(initval: u32, flags: c_int) -> c_int;

    /// Manipulates file-descriptor flags (`F_GETFL`/`F_SETFL`).
    pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;

    /// Maps `len` bytes of `fd` at `offset` into the address space.
    pub fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;

    /// Unmaps a region established by [`mmap`].
    pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

fn shm_path(name: *const c_char) -> Option<std::path::PathBuf> {
    // SAFETY: callers pass NUL-terminated strings per the POSIX contract.
    let cstr = unsafe { CStr::from_ptr(name) };
    let s = cstr.to_str().ok()?;
    let trimmed = s.trim_start_matches('/');
    if trimmed.is_empty() || trimmed.contains('/') {
        return None;
    }
    Some(std::path::Path::new("/dev/shm").join(trimmed))
}

/// Opens (and with `O_CREAT`, creates) a POSIX shared-memory object.
///
/// # Safety
/// `name` must point to a valid NUL-terminated string.
pub unsafe fn shm_open(name: *const c_char, oflag: c_int, mode: mode_t) -> c_int {
    let Some(path) = shm_path(name) else {
        return -1;
    };
    let mut options = OpenOptions::new();
    options.read(true).write(oflag & O_RDWR != 0);
    if oflag & O_CREAT != 0 {
        options.create(true).mode(mode);
    }
    match options.open(path) {
        Ok(file) => file.into_raw_fd(),
        Err(_) => -1,
    }
}

/// Removes a POSIX shared-memory object's name.
///
/// # Safety
/// `name` must point to a valid NUL-terminated string.
pub unsafe fn shm_unlink(name: *const c_char) -> c_int {
    let Some(path) = shm_path(name) else {
        return -1;
    };
    match std::fs::remove_file(path) {
        Ok(()) => 0,
        Err(_) => -1,
    }
}

/// Truncates the open file `fd` to `len` bytes.
///
/// # Safety
/// `fd` must be an open file descriptor owned by the caller.
pub unsafe fn ftruncate(fd: c_int, len: off_t) -> c_int {
    if len < 0 {
        return -1;
    }
    let file = ManuallyDrop::new(std::fs::File::from_raw_fd(fd));
    match file.set_len(len as u64) {
        Ok(()) => 0,
        Err(_) => -1,
    }
}

/// Fills `buf` with metadata of the open file `fd`.
///
/// # Safety
/// `fd` must be an open file descriptor owned by the caller and `buf` must be
/// valid for writes.
pub unsafe fn fstat(fd: c_int, buf: *mut stat) -> c_int {
    let file = ManuallyDrop::new(std::fs::File::from_raw_fd(fd));
    match file.metadata() {
        Ok(metadata) => {
            (*buf).st_size = metadata.len() as off_t;
            (*buf).st_mode = 0;
            0
        }
        Err(_) => -1,
    }
}

/// Closes the file descriptor `fd`.
///
/// # Safety
/// `fd` must be an open file descriptor; ownership transfers to this call.
pub unsafe fn close(fd: c_int) -> c_int {
    drop(std::fs::File::from_raw_fd(fd));
    0
}

/// Captures `errno` as an [`io::Error`] (used by shim tests).
pub fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::CString;

    #[test]
    fn shm_open_create_write_reopen_unlink() {
        let name = CString::new(format!("/libc-shim-test-{}", std::process::id())).unwrap();
        unsafe {
            let fd = shm_open(name.as_ptr(), O_CREAT | O_RDWR, 0o600);
            assert!(fd >= 0, "shm_open(create) failed");
            assert_eq!(ftruncate(fd, 4096), 0);
            let mut st = stat::default();
            assert_eq!(fstat(fd, &mut st), 0);
            assert_eq!(st.st_size, 4096);
            assert_eq!(close(fd), 0);

            let fd2 = shm_open(name.as_ptr(), O_RDWR, 0);
            assert!(fd2 >= 0, "shm_open(reopen) failed");
            assert_eq!(close(fd2), 0);

            assert_eq!(shm_unlink(name.as_ptr()), 0);
            assert_eq!(shm_unlink(name.as_ptr()), -1, "second unlink must fail");
        }
    }

    #[test]
    fn mmap_roundtrip() {
        let name = CString::new(format!("/libc-shim-mmap-{}", std::process::id())).unwrap();
        unsafe {
            let fd = shm_open(name.as_ptr(), O_CREAT | O_RDWR, 0o600);
            assert!(fd >= 0);
            assert_eq!(ftruncate(fd, 4096), 0);
            let ptr = mmap(
                std::ptr::null_mut(),
                4096,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                fd,
                0,
            );
            assert_ne!(ptr, MAP_FAILED);
            *(ptr as *mut u64) = 0xABCD;
            assert_eq!(*(ptr as *const u64), 0xABCD);
            assert_eq!(munmap(ptr, 4096), 0);
            assert_eq!(close(fd), 0);
            assert_eq!(shm_unlink(name.as_ptr()), 0);
        }
    }

    #[test]
    fn epoll_event_layout_matches_kernel_abi() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            std::mem::size_of::<epoll_event>(),
            12,
            "x86_64 packs epoll_event"
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(
            std::mem::size_of::<epoll_event>(),
            16,
            "other arches pad epoll_event"
        );
    }

    #[test]
    fn epoll_reports_readability_and_fcntl_sets_nonblock() {
        use std::io::Write;
        use std::os::fd::AsRawFd;

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = std::net::TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();

        unsafe {
            // fcntl O_NONBLOCK roundtrip.
            let flags = fcntl(rx.as_raw_fd(), F_GETFL, 0);
            assert!(flags >= 0);
            assert_eq!(fcntl(rx.as_raw_fd(), F_SETFL, flags | O_NONBLOCK), 0);
            assert_ne!(fcntl(rx.as_raw_fd(), F_GETFL, 0) & O_NONBLOCK, 0);

            let epfd = epoll_create1(EPOLL_CLOEXEC);
            assert!(epfd >= 0, "epoll_create1 failed");
            let mut ev = epoll_event {
                events: EPOLLIN,
                u64: 0x5EED,
            };
            assert_eq!(epoll_ctl(epfd, EPOLL_CTL_ADD, rx.as_raw_fd(), &mut ev), 0);

            // Nothing to read yet: a zero-timeout wait reports no events.
            let mut out = [epoll_event::default(); 4];
            assert_eq!(epoll_wait(epfd, out.as_mut_ptr(), 4, 0), 0);

            tx.write_all(b"beat").unwrap();
            let n = epoll_wait(epfd, out.as_mut_ptr(), 4, 1000);
            assert_eq!(n, 1, "one fd became readable");
            let got = out[0];
            assert_ne!(got.events & EPOLLIN, 0);
            assert_eq!({ got.u64 }, 0x5EED, "token returned verbatim");

            assert_eq!(
                epoll_ctl(epfd, EPOLL_CTL_DEL, rx.as_raw_fd(), std::ptr::null_mut()),
                0
            );
            assert_eq!(close(epfd), 0);
        }
    }

    #[test]
    fn vectored_io_roundtrips_across_a_socket_pair() {
        use std::io::Read;
        use std::os::fd::AsRawFd;

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tx = std::net::TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();

        // writev: two segments leave in one syscall.
        let head = b"vector".to_vec();
        let tail = b"ed-io".to_vec();
        let iov = [
            iovec {
                iov_base: head.as_ptr() as *mut c_void,
                iov_len: head.len(),
            },
            iovec {
                iov_base: tail.as_ptr() as *mut c_void,
                iov_len: tail.len(),
            },
        ];
        let written = unsafe { writev(tx.as_raw_fd(), iov.as_ptr(), 2) };
        assert_eq!(written, (head.len() + tail.len()) as isize);

        let mut all = vec![0u8; head.len() + tail.len()];
        rx.read_exact(&mut all).unwrap();
        assert_eq!(all, b"vectored-io");

        // readv: one syscall scatters into two halves.
        use std::io::Write;
        let mut tx2 = tx;
        tx2.write_all(b"heartbeat!").unwrap();
        let mut a = [0u8; 5];
        let mut b = [0u8; 5];
        let riov = [
            iovec {
                iov_base: a.as_mut_ptr() as *mut c_void,
                iov_len: a.len(),
            },
            iovec {
                iov_base: b.as_mut_ptr() as *mut c_void,
                iov_len: b.len(),
            },
        ];
        let read = unsafe { readv(rx.as_raw_fd(), riov.as_ptr(), 2) };
        assert_eq!(read, 10);
        assert_eq!(&a, b"heart");
        assert_eq!(&b, b"beat!");
    }

    #[test]
    fn eventfd_counts_writes_and_resets_on_read() {
        use std::io::{Read, Write};

        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        assert!(fd >= 0, "eventfd failed");
        let mut file = unsafe { std::fs::File::from_raw_fd(fd) };
        let mut buf = [0u8; 8];
        // Nothing written yet: a non-blocking read reports WouldBlock.
        assert_eq!(
            file.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        unsafe {
            let epfd = epoll_create1(EPOLL_CLOEXEC);
            let mut ev = epoll_event {
                events: EPOLLIN,
                u64: 7,
            };
            assert_eq!(epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &mut ev), 0);
            let mut out = [epoll_event::default(); 2];
            let poll = |out: &mut [epoll_event; 2], ms| epoll_wait(epfd, out.as_mut_ptr(), 2, ms);
            assert_eq!(poll(&mut out, 0), 0, "an idle eventfd is not readable");
            // Two writes coalesce into one readable counter.
            file.write_all(&1u64.to_ne_bytes()).unwrap();
            file.write_all(&1u64.to_ne_bytes()).unwrap();
            assert_eq!(poll(&mut out, 1000), 1);
            assert_eq!({ out[0].u64 }, 7);
            file.read_exact(&mut buf).unwrap();
            assert_eq!(u64::from_ne_bytes(buf), 2);
            assert_eq!(poll(&mut out, 0), 0, "a read resets the counter");
            assert_eq!(close(epfd), 0);
        }
    }

    #[test]
    fn invalid_names_are_rejected() {
        let bad = CString::new("/a/b").unwrap();
        unsafe {
            assert_eq!(shm_open(bad.as_ptr(), O_CREAT | O_RDWR, 0o600), -1);
            assert_eq!(shm_unlink(bad.as_ptr()), -1);
        }
    }
}
