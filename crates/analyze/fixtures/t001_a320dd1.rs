// T001 fixture: one encoder.
// Lines cut verbatim from the parent of a320dd1, the commit that
// deleted them. Not a cargo target: tests/fixtures.rs analyzes it
// under a path in each row's scope.

// git show a320dd1^:shims/serde/src/lib.rs, line 32
    fn __serialize(&self) -> Value;

// git show a320dd1^:shims/serde_derive/src/lib.rs, lines 285-289
    format!(
        "#[automatically_derived]\n\
         impl {SER} for {name} {{\n\
         fn __serialize(&self) -> {V} {{\n{body}\n}}\n}}\n"
    )
