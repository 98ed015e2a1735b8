fn missing_reason() -> i32 {
    // jets-lint: allow(exit-code)
    -128
}

// jets-lint: allow(bogus-key) the key does not exist
fn unknown_key() {}

// jets-lint: allow(relaxed) nothing below ever stores an atomic
fn unused_suppression() {}
