//! Uplink authentication primitives: SHA-256 and HMAC-SHA256.
//!
//! The federation handshake ([`crate::upstream`]) authenticates a child
//! collector to its parent with a keyed-MAC challenge/response over a
//! shared cluster secret (`--cluster-secret`): the parent sends a fresh
//! 32-byte nonce in a `NodeChallenge` frame, the child answers with
//! `HMAC-SHA256(secret, nonce || node_name)` in a `NodeAuth` frame, and
//! the parent verifies before opening the link. Binding the node name
//! into the MAC means a valid response for one node cannot be replayed
//! to claim another.
//!
//! The container builds offline, so the primitives live here rather than
//! behind a dependency: a straightforward FIPS 180-4 SHA-256 and the
//! RFC 2104 HMAC construction, pinned by the standard published test
//! vectors below. This is a message-authentication path, not a
//! general-purpose crypto library — nothing here does key derivation,
//! encryption, or signature schemes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Digest length in bytes — also the nonce and MAC length on the wire.
pub const DIGEST_LEN: usize = 32;

/// SHA-256 round constants (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 (FIPS 180-4).
struct Sha256 {
    state: [u32; 8],
    /// Bytes fed so far (for the length suffix in the padding block).
    len: u64,
    block: [u8; 64],
    fill: usize,
}

impl Sha256 {
    fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            len: 0,
            block: [0; 64],
            fill: 0,
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.fill > 0 {
            let take = data.len().min(64 - self.fill);
            self.block[self.fill..self.fill + take].copy_from_slice(&data[..take]);
            self.fill += take;
            data = &data[take..];
            if self.fill < 64 {
                // The whole input fit in the partial block; the tail below
                // must not run, or it would reset `fill` and lose it.
                return;
            }
            let block = self.block;
            self.compress(&block);
            self.fill = 0;
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.compress(&block);
            data = &data[64..];
        }
        self.block[..data.len()].copy_from_slice(data);
        self.fill = data.len();
    }

    fn finish(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.fill != 56 {
            self.update(&[0]);
        }
        // Manual tail: update() would re-count these 8 length bytes.
        self.block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.block;
        self.compress(&block);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// SHA-256 of `data` (FIPS 180-4).
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

/// HMAC-SHA256 over `msg` with `key` (RFC 2104).
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; DIGEST_LEN] {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        key_block[..DIGEST_LEN].copy_from_slice(&sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new();
    let mut pad = [0u8; 64];
    for (p, k) in pad.iter_mut().zip(key_block) {
        *p = k ^ 0x36;
    }
    inner.update(&pad);
    inner.update(msg);
    let inner_digest = inner.finish();
    let mut outer = Sha256::new();
    for (p, k) in pad.iter_mut().zip(key_block) {
        *p = k ^ 0x5c;
    }
    outer.update(&pad);
    outer.update(&inner_digest);
    outer.finish()
}

/// The uplink handshake MAC: `HMAC-SHA256(secret, nonce || node)`. The
/// node name is bound in so a response captured for one node cannot
/// authenticate a different one against the same parent.
pub fn uplink_mac(secret: &str, nonce: &[u8; DIGEST_LEN], node: &str) -> [u8; DIGEST_LEN] {
    let mut msg = Vec::with_capacity(DIGEST_LEN + node.len());
    msg.extend_from_slice(nonce);
    msg.extend_from_slice(node.as_bytes());
    hmac_sha256(secret.as_bytes(), &msg)
}

/// Constant-time 32-byte comparison: every byte participates regardless
/// of where the first mismatch sits, so verification latency leaks
/// nothing about the expected MAC.
pub fn mac_eq(a: &[u8; DIGEST_LEN], b: &[u8; DIGEST_LEN]) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Process-unique challenge nonces: wall clock, a monotone counter, and
/// the parent's address of the moment mixed through SplitMix64. Nonces
/// need uniqueness per handshake, not unpredictability of the secret —
/// the MAC covers integrity.
pub fn fresh_nonce() -> [u8; DIGEST_LEN] {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut state = now
        ^ COUNTER
            .fetch_add(1, Ordering::Relaxed) // ordering: uniqueness only; the counter feeds a nonce mix, nothing synchronizes on it
            .wrapping_mul(0x9e3779b97f4a7c15);
    let mut out = [0u8; DIGEST_LEN];
    for chunk in out.chunks_exact_mut(8) {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        chunk.copy_from_slice(&z.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_fips_vectors() {
        // FIPS 180-4 / NIST CAVP published vectors.
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn hmac_rfc4231_vectors() {
        // RFC 4231 test case 1.
        assert_eq!(
            hex(&hmac_sha256(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // Test case 2: short key ("Jefe").
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // Test case 6: key longer than one block (131 bytes of 0xaa).
        assert_eq!(
            hex(&hmac_sha256(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn uplink_mac_binds_node_name() {
        let nonce = [7u8; DIGEST_LEN];
        let a = uplink_mac("secret", &nonce, "leaf-a");
        let b = uplink_mac("secret", &nonce, "leaf-b");
        let c = uplink_mac("other", &nonce, "leaf-a");
        assert_ne!(a, b, "node name must be bound into the MAC");
        assert_ne!(a, c, "secret must be bound into the MAC");
        assert!(mac_eq(&a, &uplink_mac("secret", &nonce, "leaf-a")));
        assert!(!mac_eq(&a, &b));
    }

    #[test]
    fn nonces_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..256 {
            assert!(seen.insert(fresh_nonce()), "nonce repeated");
        }
    }
}
