//! Stable digests of inputs and alert sets.

use sd_ips::Alert;

/// 64-bit FNV-1a: stable across runs, builds and platforms.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Order-independent digest of an alert set: flow, signature and stream
/// offset of every alert, sorted. The alert source is left out, so
/// engines that label the same detection differently still agree.
pub fn alert_digest(alerts: &[Alert]) -> u64 {
    let mut keys: Vec<([u8; 13], usize, u64)> = alerts
        .iter()
        .map(|a| (a.flow.to_bytes(), a.signature, a.offset))
        .collect();
    keys.sort_unstable();
    let mut h = Fnv::new();
    for (flow, sig, off) in keys {
        h.bytes(&flow);
        h.u64(sig as u64);
        h.u64(off);
    }
    h.finish()
}
