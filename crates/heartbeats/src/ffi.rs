//! C-compatible FFI layer mirroring the original Heartbeats API.
//!
//! The paper's reference implementation "is written in C and is callable from
//! both C and C++ programs". This module exposes the same seven entry points
//! with C linkage so existing instrumented code (e.g. the PARSEC patches) can
//! link against this crate built as a `staticlib`/`cdylib`.
//!
//! Handles returned by [`HB_initialize`] index a process-global table of
//! [`Heartbeat`] instances; all functions are safe to call from any thread.
//! Failure is signalled with negative return values, as is conventional in C.

use std::ffi::CStr;
use std::os::raw::{c_char, c_double, c_int, c_longlong};

use std::sync::RwLock;

use crate::backend::BeatScope;
use crate::builder::HeartbeatBuilder;
use crate::record::Tag;
use crate::Heartbeat;

/// A heartbeat record as laid out for C callers of [`HB_get_history`].
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HBRecord {
    /// Sequence number of the beat in its stream.
    pub seq: u64,
    /// Timestamp in nanoseconds.
    pub timestamp_ns: u64,
    /// User tag (0 if none).
    pub tag: u64,
    /// Dense thread id of the producer.
    pub thread_id: u32,
    /// Reserved for future use / alignment.
    pub _reserved: u32,
}

#[derive(Default)]
struct HandleTable {
    entries: Vec<Option<Heartbeat>>,
}

static HANDLES: RwLock<HandleTable> = RwLock::new(HandleTable {
    entries: Vec::new(),
});

fn with_handle<T>(handle: c_longlong, f: impl FnOnce(&Heartbeat) -> T) -> Option<T> {
    if handle < 0 {
        return None;
    }
    let table = HANDLES.read().unwrap_or_else(|e| e.into_inner());
    table
        .entries
        .get(handle as usize)
        .and_then(|slot| slot.as_ref())
        .map(f)
}

/// Initializes a heartbeat instance.
///
/// * `name` — NUL-terminated application name; may be null, in which case a
///   name is derived from the handle index.
/// * `window` — default window in beats (values below 2 are raised to 2).
///
/// Returns a non-negative handle on success, or `-1` on failure.
///
/// # Safety
///
/// `name`, if non-null, must point to a valid NUL-terminated C string.
#[no_mangle]
pub unsafe extern "C" fn HB_initialize(name: *const c_char, window: c_longlong) -> c_longlong {
    let mut table = HANDLES.write().unwrap_or_else(|e| e.into_inner());
    let index = table.entries.len();
    let name = if name.is_null() {
        format!("hb-ffi-{index}")
    } else {
        match unsafe { CStr::from_ptr(name) }.to_str() {
            Ok(s) if !s.is_empty() => s.to_string(),
            _ => format!("hb-ffi-{index}"),
        }
    };
    let window = window.max(2) as usize;
    let built = HeartbeatBuilder::new(name)
        .window(window)
        .capacity(window.max(crate::buffer::DEFAULT_CAPACITY))
        .build();
    match built {
        Ok(hb) => {
            table.entries.push(Some(hb));
            index as c_longlong
        }
        Err(_) => -1,
    }
}

/// Releases the heartbeat associated with `handle`. Subsequent calls with the
/// same handle fail. Returns 0 on success, -1 if the handle was invalid.
#[no_mangle]
pub extern "C" fn HB_finalize(handle: c_longlong) -> c_int {
    if handle < 0 {
        return -1;
    }
    let mut table = HANDLES.write().unwrap_or_else(|e| e.into_inner());
    match table.entries.get_mut(handle as usize) {
        Some(slot @ Some(_)) => {
            *slot = None;
            0
        }
        _ => -1,
    }
}

/// Registers a heartbeat. `local` non-zero produces a per-thread (local)
/// beat. Returns the beat's sequence number, or -1 on an invalid handle.
#[no_mangle]
pub extern "C" fn HB_heartbeat(handle: c_longlong, tag: c_longlong, local: c_int) -> c_longlong {
    with_handle(handle, |hb| {
        let scope = if local != 0 {
            BeatScope::Local
        } else {
            BeatScope::Global
        };
        hb.beat(Tag::new(tag as u64), scope) as c_longlong
    })
    .unwrap_or(-1)
}

/// Returns the average heart rate over the last `window` beats (0 = default
/// window), or a negative value if the handle is invalid or fewer than two
/// beats exist.
#[no_mangle]
pub extern "C" fn HB_current_rate(
    handle: c_longlong,
    window: c_longlong,
    local: c_int,
) -> c_double {
    with_handle(handle, |hb| {
        let window = window.max(0) as usize;
        let rate = if local != 0 {
            hb.current_rate_local(window)
        } else {
            hb.current_rate(window)
        };
        rate.unwrap_or(-1.0)
    })
    .unwrap_or(-1.0)
}

/// Sets the application's target heart-rate range. Returns 0 on success, -1
/// on an invalid handle or invalid range.
#[no_mangle]
pub extern "C" fn HB_set_target_rate(handle: c_longlong, min: c_double, max: c_double) -> c_int {
    with_handle(handle, |hb| {
        if hb.set_target_rate(min, max).is_ok() {
            0
        } else {
            -1
        }
    })
    .unwrap_or(-1)
}

/// Returns the minimum target rate, or a negative value if unset/invalid.
#[no_mangle]
pub extern "C" fn HB_get_target_min(handle: c_longlong) -> c_double {
    with_handle(handle, |hb| hb.target_min()).unwrap_or(-1.0)
}

/// Returns the maximum target rate, or a negative value if unset/invalid.
#[no_mangle]
pub extern "C" fn HB_get_target_max(handle: c_longlong) -> c_double {
    with_handle(handle, |hb| hb.target_max()).unwrap_or(-1.0)
}

/// Copies up to `n` of the most recent heartbeats (oldest first) into `out`.
/// Returns the number of records written, or -1 on an invalid handle or null
/// output pointer.
///
/// # Safety
///
/// `out` must point to a writable array of at least `n` [`HBRecord`]s.
#[no_mangle]
pub unsafe extern "C" fn HB_get_history(
    handle: c_longlong,
    n: c_longlong,
    out: *mut HBRecord,
    local: c_int,
) -> c_longlong {
    if out.is_null() || n < 0 {
        return -1;
    }
    with_handle(handle, |hb| {
        let records = if local != 0 {
            hb.history_local(n as usize)
        } else {
            hb.history(n as usize)
        };
        for (i, record) in records.iter().enumerate() {
            unsafe {
                out.add(i).write(HBRecord {
                    seq: record.seq,
                    timestamp_ns: record.timestamp_ns,
                    tag: record.tag.value(),
                    thread_id: record.thread.index(),
                    _reserved: 0,
                });
            }
        }
        records.len() as c_longlong
    })
    .unwrap_or(-1)
}

/// Returns the total number of global beats produced, or -1 on an invalid
/// handle.
#[no_mangle]
pub extern "C" fn HB_total_beats(handle: c_longlong) -> c_longlong {
    with_handle(handle, |hb| hb.total_beats() as c_longlong).unwrap_or(-1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::CString;

    fn init(name: &str, window: i64) -> i64 {
        let cname = CString::new(name).unwrap();
        unsafe { HB_initialize(cname.as_ptr(), window) }
    }

    #[test]
    fn initialize_and_finalize() {
        let handle = init("ffi-app", 10);
        assert!(handle >= 0);
        assert_eq!(HB_finalize(handle), 0);
        assert_eq!(HB_finalize(handle), -1, "double finalize fails");
        assert_eq!(HB_heartbeat(handle, 0, 0), -1, "use after finalize fails");
    }

    #[test]
    fn initialize_with_null_name() {
        let handle = unsafe { HB_initialize(std::ptr::null(), 5) };
        assert!(handle >= 0);
        assert_eq!(HB_finalize(handle), 0);
    }

    #[test]
    fn heartbeat_and_rate() {
        let handle = init("ffi-rate", 4);
        assert_eq!(HB_heartbeat(handle, 1, 0), 0);
        assert_eq!(HB_heartbeat(handle, 2, 0), 1);
        assert_eq!(HB_total_beats(handle), 2);
        // Rate may still be unmeasurable if both beats landed on the same
        // nanosecond, but the call must not fail with -1 handle semantics.
        let rate = HB_current_rate(handle, 0, 0);
        assert!(rate >= -1.0);
        assert_eq!(HB_finalize(handle), 0);
    }

    #[test]
    fn targets_roundtrip() {
        let handle = init("ffi-target", 4);
        assert!(HB_get_target_min(handle) < 0.0);
        assert_eq!(HB_set_target_rate(handle, 30.0, 35.0), 0);
        assert_eq!(HB_get_target_min(handle), 30.0);
        assert_eq!(HB_get_target_max(handle), 35.0);
        assert_eq!(HB_set_target_rate(handle, 10.0, 5.0), -1);
        assert_eq!(HB_finalize(handle), 0);
    }

    #[test]
    fn history_copies_records() {
        let handle = init("ffi-history", 8);
        for i in 0..5 {
            HB_heartbeat(handle, i * 11, 0);
        }
        let mut out = vec![
            HBRecord {
                seq: 0,
                timestamp_ns: 0,
                tag: 0,
                thread_id: 0,
                _reserved: 0
            };
            3
        ];
        let written = unsafe { HB_get_history(handle, 3, out.as_mut_ptr(), 0) };
        assert_eq!(written, 3);
        assert_eq!(out[0].tag, 22);
        assert_eq!(out[2].tag, 44);
        assert_eq!(out[2].seq, 4);
        assert_eq!(HB_finalize(handle), 0);
    }

    #[test]
    fn history_rejects_null_out() {
        let handle = init("ffi-null", 4);
        let written = unsafe { HB_get_history(handle, 3, std::ptr::null_mut(), 0) };
        assert_eq!(written, -1);
        assert_eq!(HB_finalize(handle), 0);
    }

    #[test]
    fn local_beats_through_ffi() {
        let handle = init("ffi-local", 4);
        assert_eq!(HB_heartbeat(handle, 7, 1), 0);
        assert_eq!(HB_total_beats(handle), 0, "local beats are not global");
        let mut out = vec![
            HBRecord {
                seq: 0,
                timestamp_ns: 0,
                tag: 0,
                thread_id: 0,
                _reserved: 0
            };
            1
        ];
        let written = unsafe { HB_get_history(handle, 1, out.as_mut_ptr(), 1) };
        assert_eq!(written, 1);
        assert_eq!(out[0].tag, 7);
        assert_eq!(HB_finalize(handle), 0);
    }

    #[test]
    fn invalid_handles_fail_gracefully() {
        assert_eq!(HB_heartbeat(-1, 0, 0), -1);
        assert_eq!(HB_current_rate(9_999_999, 0, 0), -1.0);
        assert_eq!(HB_set_target_rate(-5, 1.0, 2.0), -1);
        assert_eq!(HB_total_beats(1 << 40), -1);
    }
}
