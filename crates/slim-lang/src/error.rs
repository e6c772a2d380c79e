//! Front-end error types.

use crate::token::Pos;
use std::fmt;

/// A lexing/parsing/analysis error with source position.
#[derive(Debug, Clone, PartialEq)]
pub struct LangError {
    /// What went wrong.
    pub kind: LangErrorKind,
    /// Where (1-based line:column).
    pub pos: Pos,
}

/// Error kinds of the front-end.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum LangErrorKind {
    /// Lexer met an unexpected character.
    UnexpectedChar(char),
    /// Malformed numeric literal.
    BadNumber(String),
    /// Parser expected something else.
    Expected { expected: String, found: String },
    /// `end X;` does not match the declaration header.
    EndMismatch { declared: String, ended: String },
    /// A name was declared twice; the string says what kind of name and
    /// quotes it, as for [`LangErrorKind::Unknown`].
    Duplicate(String),
    /// A referenced name does not exist; the string says what kind of
    /// name and quotes it (``mode `on` in `top` ``).
    Unknown(String),
    /// A construct is well-formed but not allowed here (e.g. a `rate`
    /// trigger combined with a `when` guard).
    Invalid(String),
    /// Lowering produced an ill-formed network.
    Lowering(String),
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.pos)?;
        match &self.kind {
            LangErrorKind::UnexpectedChar(c) => write!(f, "unexpected character `{c}`"),
            LangErrorKind::BadNumber(s) => write!(f, "malformed number `{s}`"),
            LangErrorKind::Expected { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            LangErrorKind::EndMismatch { declared, ended } => {
                write!(f, "`end {ended}` does not match declaration `{declared}`")
            }
            LangErrorKind::Duplicate(what) => write!(f, "duplicate declaration of {what}"),
            LangErrorKind::Unknown(what) => write!(f, "unknown {what}"),
            LangErrorKind::Invalid(msg) => write!(f, "{msg}"),
            LangErrorKind::Lowering(msg) => write!(f, "lowering failed: {msg}"),
        }
    }
}

impl std::error::Error for LangError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = LangError {
            kind: LangErrorKind::Unknown("name `gps`".into()),
            pos: Pos { line: 4, col: 2 },
        };
        let s = e.to_string();
        assert!(s.contains("4:2") && s.contains("gps"));
    }
}
