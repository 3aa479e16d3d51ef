//! Fixture: the error-code enum for the wire-exhaustiveness rule.  `Code::Gamma` is
//! missing from `ALL` (rule 5 violation, reported at the `ALL` const on line 12).

pub enum Code {
    Alpha,
    Beta,
    Gamma,
}

impl Code {
    // VIOLATION[wire-exhaustiveness]: `Code::Gamma` is not listed.
    pub const ALL: [Code; 2] = [Code::Alpha, Code::Beta];

    pub fn name(self) -> &'static str {
        match self {
            Code::Alpha => "alpha",
            Code::Beta => "beta",
            Code::Gamma => "gamma",
        }
    }
}
