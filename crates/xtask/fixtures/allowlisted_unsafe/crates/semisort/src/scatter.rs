//! Lint fixture: a SAFETY-documented unsafe block in the scatter module,
//! which IS on the unsafe allowlist — the linter must exit 0 with zero
//! violations (pinning that the allowlist covers the CAS scatter).

pub fn read(p: *const u8) -> u8 {
    // SAFETY: fixture stand-in for the audited slot accesses.
    unsafe { *p }
}
