//! Spec fingerprinting: a stable label for a cached submission.
//!
//! The fingerprint is a 64-bit FNV-1a hash of the *canonical JSON* of
//! the submission's semantic inputs: the resource library, the system
//! specification, the portfolio size and the reconfiguration flag.
//! Canonical JSON here means the vendored serializer's compact output
//! of `{"payload":…,"portfolio":…,"reconfiguration":…}` — struct fields
//! serialize in declaration order and maps preserve insertion order, so
//! the byte string (and therefore the hash) is stable across runs,
//! platforms and `--jobs` values.
//!
//! The fingerprint is not the cache key. The daemon keys its cache by
//! the typed inputs themselves and computes the fingerprint once per
//! cached spec, for result frames and client-side correlation. FNV-1a
//! is not collision-resistant, so equal fingerprints do not prove equal
//! inputs; typed equality does.

use crate::dto::SpecPayload;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Extends a 64-bit FNV-1a hash state over a byte string.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Computes the spec fingerprint (16 hex digits) of a submission.
///
/// The payload is serialized once; the canonical wrapper's bytes around
/// it are hashed in place rather than built into a second tree.
///
/// # Errors
///
/// Propagates a serialization failure of the payload (non-finite floats
/// in the specification) as the serializer's error message.
pub fn fingerprint(
    payload: &SpecPayload,
    portfolio: usize,
    reconfiguration: bool,
) -> Result<String, String> {
    let json = serde_json::to_string(payload).map_err(|e| e.to_string())?;
    let suffix = format!(",\"portfolio\":{portfolio},\"reconfiguration\":{reconfiguration}}}");
    let hash = fnv1a(FNV_OFFSET, b"{\"payload\":");
    let hash = fnv1a(hash, json.as_bytes());
    let hash = fnv1a(hash, suffix.as_bytes());
    Ok(format!("{hash:016x}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crusade_workloads::motivating_example;

    fn motivating_payload() -> SpecPayload {
        let (library, spec) = motivating_example();
        SpecPayload { library, spec }
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        let payload = motivating_payload();
        let a = fingerprint(&payload, 4, true).unwrap();
        let b = fingerprint(&payload, 4, true).unwrap();
        assert_eq!(a, b, "same inputs must fingerprint identically");
        assert_eq!(a.len(), 16);

        let c = fingerprint(&payload, 8, true).unwrap();
        assert_ne!(a, c, "portfolio size is part of the fingerprint");
        let d = fingerprint(&payload, 4, false).unwrap();
        assert_ne!(a, d, "reconfiguration flag is part of the fingerprint");
    }

    /// The wire values clients may have stored: hashing the canonical
    /// bytes piecewise must not move them.
    #[test]
    fn fingerprints_of_the_motivating_example_are_pinned() {
        let payload = motivating_payload();
        for (portfolio, reconfiguration, pinned) in [
            (4, true, "f8882aa3215997e0"),
            (2, true, "8e986fb1c55d332a"),
            (4, false, "313ca7240f38c4b7"),
        ] {
            assert_eq!(
                fingerprint(&payload, portfolio, reconfiguration).unwrap(),
                pinned,
                "portfolio {portfolio}, reconfiguration {reconfiguration}"
            );
        }
    }
}
