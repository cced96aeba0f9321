//! Integration test of the C-compatible FFI layer: the full Table 1 call
//! sequence a C program would make, end to end.

use std::ffi::CString;

use app_heartbeats::heartbeats::ffi::{
    HBRecord, HB_current_rate, HB_finalize, HB_get_history, HB_get_target_max, HB_get_target_min,
    HB_heartbeat, HB_initialize, HB_set_target_rate, HB_total_beats,
};

#[test]
fn full_c_style_session() {
    let name = CString::new("ffi-integration").unwrap();
    // HB_initialize(window = 20)
    let handle = unsafe { HB_initialize(name.as_ptr(), 20) };
    assert!(handle >= 0);

    // HB_set_target_rate(30, 35) and the two getters.
    assert_eq!(HB_set_target_rate(handle, 30.0, 35.0), 0);
    assert_eq!(HB_get_target_min(handle), 30.0);
    assert_eq!(HB_get_target_max(handle), 35.0);

    // HB_heartbeat in a loop, alternating global and local beats.
    for frame in 0..100i64 {
        assert_eq!(HB_heartbeat(handle, frame, 0), frame);
        HB_heartbeat(handle, frame, 1);
    }
    assert_eq!(HB_total_beats(handle), 100);

    // HB_current_rate with the default window (wall-clock based, so only its
    // sign is meaningful here).
    let rate = HB_current_rate(handle, 0, 0);
    assert!(rate > 0.0 || rate == -1.0);

    // HB_get_history(10): chronological, carrying the tags we supplied.
    let mut out = vec![
        HBRecord {
            seq: 0,
            timestamp_ns: 0,
            tag: 0,
            thread_id: 0,
            _reserved: 0
        };
        10
    ];
    let written = unsafe { HB_get_history(handle, 10, out.as_mut_ptr(), 0) };
    assert_eq!(written, 10);
    assert_eq!(out[0].tag, 90);
    assert_eq!(out[9].tag, 99);
    assert!(out.windows(2).all(|w| w[0].seq < w[1].seq));

    // Local history is independent.
    let written_local = unsafe { HB_get_history(handle, 10, out.as_mut_ptr(), 1) };
    assert_eq!(written_local, 10);

    assert_eq!(HB_finalize(handle), 0);
    assert_eq!(HB_total_beats(handle), -1, "handle is dead after finalize");
}

#[test]
fn several_ffi_applications_coexist() {
    let a_name = CString::new("ffi-app-a").unwrap();
    let b_name = CString::new("ffi-app-b").unwrap();
    let a = unsafe { HB_initialize(a_name.as_ptr(), 10) };
    let b = unsafe { HB_initialize(b_name.as_ptr(), 10) };
    assert!(a >= 0 && b >= 0 && a != b);
    for _ in 0..5 {
        HB_heartbeat(a, 0, 0);
    }
    for _ in 0..3 {
        HB_heartbeat(b, 0, 0);
    }
    assert_eq!(HB_total_beats(a), 5);
    assert_eq!(HB_total_beats(b), 3);
    assert_eq!(HB_finalize(a), 0);
    assert_eq!(HB_finalize(b), 0);
}
