//! # sysr-sql — the SQL front end
//!
//! System R's user interface is SQL; "a query block is represented by a
//! SELECT list, a FROM list, and a WHERE tree" (paper, Section 2). This
//! crate provides the **parsing** phase of the paper's four-phase pipeline
//! (parsing → optimization → code generation → execution): a lexer and a
//! recursive-descent parser producing an AST of query blocks.
//!
//! The dialect covers what the paper's optimizer handles:
//!
//! * `SELECT [DISTINCT] list | * FROM t [alias], ... [WHERE ...]
//!   [GROUP BY ...] [ORDER BY ... [ASC|DESC]]`
//! * boolean WHERE trees over comparisons, `BETWEEN`, `IN (list)`,
//!   `IN (subquery)`, `op (subquery)` (scalar subqueries), `AND/OR/NOT`
//! * arithmetic expressions over columns and literals
//! * aggregates `COUNT/SUM/AVG/MIN/MAX` (including `COUNT(*)`)
//! * correlated subqueries via qualified outer references (`X.MANAGER`)
//! * DDL/DML needed to drive the system: `CREATE TABLE`,
//!   `CREATE [UNIQUE] [CLUSTERED] INDEX`, `INSERT INTO ... VALUES`,
//!   `DELETE FROM`, `UPDATE STATISTICS`, and an `EXPLAIN` prefix.
//!
//! Name resolution and semantic checking happen in `sysr-core`'s binder,
//! which has catalog access; this crate is purely syntactic.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod ast;
pub mod lexer;
pub mod parser;

pub use ast::*;
pub use lexer::{Lexer, Token, TokenKind};
pub use parser::{parse_one, parse_statement, parse_statements, ParseError};
