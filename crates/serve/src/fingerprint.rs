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

use std::fmt::Write as _;

use crate::dto::SpecPayload;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a hash state that printed text is written into.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

/// Computes the spec fingerprint (16 hex digits) of a submission.
///
/// The printer writes the canonical JSON straight into the hash state:
/// no string of it is ever built.
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
    let mut hash = Fnv1a(FNV_OFFSET);
    let _ = hash.write_str("{\"payload\":");
    serde_json::to_writer(&mut hash, payload).map_err(|e| e.to_string())?;
    let _ = write!(
        hash,
        ",\"portfolio\":{portfolio},\"reconfiguration\":{reconfiguration}}}"
    );
    Ok(format!("{:016x}", hash.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crusade_workloads::motivating_example;

    fn motivating_payload() -> SpecPayload {
        let (library, spec) = motivating_example();
        SpecPayload { library, spec }
    }

    /// The hash runs over exactly the bytes `to_string` prints.
    #[test]
    fn fingerprint_hashes_the_printed_canonical_json() {
        let payload = motivating_payload();
        let json = serde_json::to_string(&payload).unwrap();
        let canonical = format!("{{\"payload\":{json},\"portfolio\":3,\"reconfiguration\":true}}");
        let mut hash = Fnv1a(FNV_OFFSET);
        hash.write_str(&canonical).unwrap();
        assert_eq!(
            fingerprint(&payload, 3, true).unwrap(),
            format!("{:016x}", hash.0)
        );
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
    /// bytes as they are printed must not move them.
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
